// Package rdf implements the dictionary-encoded triple store that holds the
// semantic half of the Sensor Metadata Repository: every (attribute, value)
// annotation of a wiki page becomes a triple, and the SPARQL engine in
// internal/sparql evaluates basic graph patterns against the three permuted
// indexes (SPO, POS, OSP) kept here.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind distinguishes IRIs, literals and blank nodes.
type TermKind uint8

const (
	// IRI is a resource identifier.
	IRI TermKind = iota
	// Literal is a (possibly typed or language-tagged) literal value.
	Literal
	// Blank is a blank node.
	Blank
)

// Term is one RDF term. Lang and Datatype apply to literals only.
type Term struct {
	Kind     TermKind
	Value    string
	Lang     string
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTypedLiteral returns a literal with a datatype IRI.
func NewTypedLiteral(v, datatype string) Term {
	return Term{Kind: Literal, Value: v, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(v, lang string) Term {
	return Term{Kind: Literal, Value: v, Lang: lang}
}

// NewBlank returns a blank node with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// Key returns the canonical dictionary key of the term: kind, value,
// lang/datatype all participate so "42"^^xsd:int and "42" stay distinct.
func (t Term) Key() string {
	switch t.Kind {
	case IRI:
		return "i:" + t.Value
	case Blank:
		return "b:" + t.Value
	default:
		return "l:" + t.Value + "\x00" + t.Lang + "\x00" + t.Datatype
	}
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		s := `"` + escapeLiteral(t.Value) + `"`
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	}
}

// literalEscapes holds the escape sequence of every byte a literal's
// N-Triples form rewrites; other bytes are written as they are.
var literalEscapes = [256]string{'\\': `\\`, '"': `\"`, '\n': `\n`, '\r': `\r`, '\t': `\t`}

// literalEscaper applies literalEscapes. One replacer serves every call: a
// strings.Replacer is safe for concurrent use.
var literalEscaper = func() *strings.Replacer {
	var oldnew []string
	for c, esc := range literalEscapes {
		if esc != "" {
			oldnew = append(oldnew, string(rune(c)), esc)
		}
	}
	return strings.NewReplacer(oldnew...)
}()

func escapeLiteral(s string) string { return literalEscaper.Replace(s) }

func unescapeLiteral(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Triple is one RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// ntReader reads the N-Triples form of a triple, as Triple.String writes
// it, in chunks, so two forms can be compared without building either.
type ntReader struct {
	terms  [3]*Term
	term   int       // index in terms of the term being read
	pieces [6]string // that term's form in pieces, ending with its separator
	n, i   int       // pieces[i:n] are unread
	value  int       // index in pieces of a literal's value, else -1
	cur    string    // unread bytes of the current chunk
	raw    string    // unread bytes of a literal's value, not yet escaped
}

// load starts reading at terms[k].
func (r *ntReader) load(k int) {
	t, sep := r.terms[k], " "
	if k == 2 {
		sep = " ."
	}
	r.term, r.i, r.value = k, 0, -1
	switch t.Kind {
	case IRI:
		r.pieces, r.n = [6]string{"<", t.Value, ">", sep}, 4
	case Blank:
		r.pieces, r.n = [6]string{"_:", t.Value, sep}, 3
	default:
		r.value = 1
		switch {
		case t.Lang != "":
			r.pieces, r.n = [6]string{`"`, t.Value, `"@`, t.Lang, sep}, 5
		case t.Datatype != "":
			r.pieces, r.n = [6]string{`"`, t.Value, `"^^<`, t.Datatype, ">", sep}, 6
		default:
			r.pieces, r.n = [6]string{`"`, t.Value, `"`, sep}, 4
		}
	}
}

// fill makes cur non-empty and reports false once the form is read.
func (r *ntReader) fill() bool {
	for r.cur == "" {
		switch {
		case r.raw != "":
			if esc := literalEscapes[r.raw[0]]; esc != "" {
				r.cur, r.raw = esc, r.raw[1:]
				continue
			}
			j := 1
			for j < len(r.raw) && literalEscapes[r.raw[j]] == "" {
				j++
			}
			r.cur, r.raw = r.raw[:j], r.raw[j:]
		case r.i < r.n:
			if r.i == r.value {
				r.raw = r.pieces[r.i]
			} else {
				r.cur = r.pieces[r.i]
			}
			r.i++
		case r.term < 2:
			r.load(r.term + 1)
		default:
			return false
		}
	}
	return true
}

// compareNTriples compares the N-Triples forms of the triples a and b
// byte by byte, like strings.Compare of their String()s, without building
// them. The terms before index from must be equal in a and b.
func compareNTriples(a, b [3]*Term, from int) int {
	ra, rb := ntReader{terms: a}, ntReader{terms: b}
	ra.load(from)
	rb.load(from)
	for {
		okA, okB := ra.fill(), rb.fill()
		switch {
		case !okA && !okB:
			return 0
		case !okA:
			return -1
		case !okB:
			return 1
		}
		n := min(len(ra.cur), len(rb.cur))
		if c := strings.Compare(ra.cur[:n], rb.cur[:n]); c != 0 {
			return c
		}
		ra.cur, rb.cur = ra.cur[n:], rb.cur[n:]
	}
}
