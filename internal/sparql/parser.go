package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/rdf"
)

// Parse parses a SPARQL SELECT query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("trailing input")
	}
	return q, nil
}

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tVar      // ?name
	tIRI      // <...>
	tPrefixed // foo:bar
	tString
	tNumber
	tPunct
)

type tok struct {
	kind tokKind
	text string
	// extra carries the datatype/lang of literal tokens.
	lang, datatype string
	pos            int
}

func lex(src string) ([]tok, error) {
	var toks []tok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '?' || c == '$':
			j := i + 1
			for j < len(src) && (isNamePart(src[j])) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("sparql: bare %q at offset %d", c, i)
			}
			toks = append(toks, tok{kind: tVar, text: src[i+1 : j], pos: i})
			i = j
		case c == '<':
			// '<' opens an IRI only when a '>' follows with no intervening
			// whitespace; otherwise it is the less-than operator.
			j := i + 1
			for j < len(src) && src[j] != '>' && !unicode.IsSpace(rune(src[j])) {
				j++
			}
			switch {
			case j < len(src) && src[j] == '>':
				toks = append(toks, tok{kind: tIRI, text: src[i+1 : j], pos: i})
				i = j + 1
			case i+1 < len(src) && src[i+1] == '=':
				toks = append(toks, tok{kind: tPunct, text: "<=", pos: i})
				i += 2
			default:
				toks = append(toks, tok{kind: tPunct, text: "<", pos: i})
				i++
			}
		case c == '"':
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					switch src[j+1] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '"':
						b.WriteByte('"')
					case '\\':
						b.WriteByte('\\')
					default:
						b.WriteByte(src[j+1])
					}
					j += 2
					continue
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("sparql: unterminated string at offset %d", i)
			}
			t := tok{kind: tString, text: b.String(), pos: i}
			j++
			// @lang or ^^<iri>
			if j < len(src) && src[j] == '@' {
				k := j + 1
				for k < len(src) && (isNamePart(src[k]) || src[k] == '-') {
					k++
				}
				t.lang = src[j+1 : k]
				j = k
			} else if strings.HasPrefix(src[j:], "^^<") {
				k := strings.IndexByte(src[j:], '>')
				if k < 0 {
					return nil, fmt.Errorf("sparql: unterminated datatype at offset %d", j)
				}
				t.datatype = src[j+3 : j+k]
				j += k + 1
			}
			toks = append(toks, t)
			i = j
		case unicode.IsDigit(rune(c)) || (c == '-' && i+1 < len(src) && unicode.IsDigit(rune(src[i+1]))):
			j := i + 1
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, tok{kind: tNumber, text: src[i:j], pos: i})
			i = j
		case isNameStart(c):
			j := i
			for j < len(src) && isNamePart(src[j]) {
				j++
			}
			word := src[i:j]
			// prefixed name? foo:bar (or foo: alone in PREFIX decls)
			if j < len(src) && src[j] == ':' {
				k := j + 1
				for k < len(src) && isNamePart(src[k]) {
					k++
				}
				toks = append(toks, tok{kind: tPrefixed, text: src[i:k], pos: i})
				i = k
				break
			}
			toks = append(toks, tok{kind: tIdent, text: word, pos: i})
			i = j
		case c == ':':
			// default-prefix name :bar
			k := i + 1
			for k < len(src) && isNamePart(src[k]) {
				k++
			}
			toks = append(toks, tok{kind: tPrefixed, text: src[i:k], pos: i})
			i = k
		default:
			// punctuation, including multi-char operators
			for _, op := range []string{"&&", "||", "!=", "<=", ">=", "^^"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, tok{kind: tPunct, text: op, pos: i})
					i += 2
					goto next
				}
			}
			switch c {
			case '{', '}', '(', ')', '.', ';', ',', '=', '<', '>', '!', '*', 'a':
				toks = append(toks, tok{kind: tPunct, text: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("sparql: unexpected character %q at offset %d", c, i)
			}
		next:
		}
	}
	toks = append(toks, tok{kind: tEOF, pos: len(src)})
	return toks, nil
}

func isNameStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isNamePart(c byte) bool {
	return c == '_' || c == '-' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

type parser struct {
	toks []tok
	i    int
	q    *Query
}

func (p *parser) cur() tok    { return p.toks[p.i] }
func (p *parser) atEOF() bool { return p.cur().kind == tEOF }

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sparql: parse error near offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.cur()
	if t.kind == tPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errorf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Prefixes: map[string]string{}}
	p.q = q
	for p.keyword("PREFIX") {
		t := p.cur()
		if t.kind != tPrefixed || !strings.HasSuffix(t.text, ":") {
			// A prefix declaration is "name:" followed by an IRI; the lexer
			// yields the name and colon as one prefixed token with an empty
			// local part.
			if t.kind != tPrefixed {
				return nil, p.errorf("expected prefix name, found %q", t.text)
			}
		}
		name := strings.TrimSuffix(t.text, ":")
		if idx := strings.IndexByte(t.text, ':'); idx >= 0 {
			name = t.text[:idx]
			if t.text[idx+1:] != "" {
				return nil, p.errorf("malformed prefix declaration %q", t.text)
			}
		}
		p.i++
		iri := p.cur()
		if iri.kind != tIRI {
			return nil, p.errorf("expected IRI after PREFIX, found %q", iri.text)
		}
		q.Prefixes[name] = iri.text
		p.i++
	}

	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if p.keyword("DISTINCT") {
		q.Distinct = true
	}
	if p.punct("*") {
		// SELECT *: all vars, left empty.
	} else {
		for p.cur().kind == tVar {
			q.Vars = append(q.Vars, p.cur().text)
			p.i++
		}
		if len(q.Vars) == 0 {
			return nil, p.errorf("SELECT needs * or at least one variable")
		}
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	group, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = *group

	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			switch {
			case p.keyword("DESC"):
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				if p.cur().kind != tVar {
					return nil, p.errorf("expected variable in DESC()")
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.cur().text, Desc: true})
				p.i++
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			case p.keyword("ASC"):
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				if p.cur().kind != tVar {
					return nil, p.errorf("expected variable in ASC()")
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.cur().text})
				p.i++
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			case p.cur().kind == tVar:
				q.OrderBy = append(q.OrderBy, OrderKey{Var: p.cur().text})
				p.i++
			default:
				goto doneOrder
			}
		}
	}
doneOrder:

	if p.keyword("LIMIT") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Limit, q.HasLimit = n, true
	}
	if p.keyword("OFFSET") {
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		q.Offset = n
	}
	return q, nil
}

func (p *parser) parseInt() (int, error) {
	t := p.cur()
	if t.kind != tNumber {
		return 0, p.errorf("expected number, found %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf("expected integer, found %q", t.text)
	}
	p.i++
	return n, nil
}

func (p *parser) parseGroup() (*GroupGraphPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupGraphPattern{}
	for {
		switch {
		case p.punct("}"):
			return g, nil
		case p.keyword("FILTER"):
			e, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
		case p.keyword("OPTIONAL"):
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Optionals = append(g.Optionals, *sub)
		case p.cur().kind == tPunct && p.cur().text == "{":
			// { A } UNION { B } [ UNION { C } … ]
			first, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			alts := []GroupGraphPattern{*first}
			for p.keyword("UNION") {
				next, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				alts = append(alts, *next)
			}
			g.Unions = append(g.Unions, alts)
		default:
			tp, err := p.parseTriplePattern()
			if err != nil {
				return nil, err
			}
			g.Triples = append(g.Triples, tp...)
			p.punct(".") // optional statement separator
		}
	}
}

// parseTriplePattern parses subject predicate object with ; and ,
// continuation lists, returning one or more patterns.
func (p *parser) parseTriplePattern() ([]TriplePattern, error) {
	s, err := p.parseNode(false)
	if err != nil {
		return nil, err
	}
	var out []TriplePattern
	for {
		pred, err := p.parseNode(true)
		if err != nil {
			return nil, err
		}
		for {
			o, err := p.parseNode(false)
			if err != nil {
				return nil, err
			}
			out = append(out, TriplePattern{S: s, P: pred, O: o})
			if p.punct(",") {
				continue
			}
			break
		}
		if p.punct(";") {
			continue
		}
		break
	}
	return out, nil
}

func (p *parser) expandPrefixed(text string, pos int) (string, error) {
	idx := strings.IndexByte(text, ':')
	prefix, local := text[:idx], text[idx+1:]
	base, ok := p.q.Prefixes[prefix]
	if !ok {
		return "", fmt.Errorf("sparql: unknown prefix %q at offset %d", prefix, pos)
	}
	return base + local, nil
}

func (p *parser) parseNode(isPredicate bool) (Node, error) {
	t := p.cur()
	switch t.kind {
	case tVar:
		p.i++
		return Var(t.text), nil
	case tIRI:
		p.i++
		return Const(rdf.NewIRI(t.text)), nil
	case tPrefixed:
		iri, err := p.expandPrefixed(t.text, t.pos)
		if err != nil {
			return Node{}, err
		}
		p.i++
		return Const(rdf.NewIRI(iri)), nil
	case tString:
		p.i++
		switch {
		case t.lang != "":
			return Const(rdf.NewLangLiteral(t.text, t.lang)), nil
		case t.datatype != "":
			return Const(rdf.NewTypedLiteral(t.text, t.datatype)), nil
		default:
			return Const(rdf.NewLiteral(t.text)), nil
		}
	case tNumber:
		p.i++
		dt := "http://www.w3.org/2001/XMLSchema#integer"
		if strings.ContainsAny(t.text, ".eE") {
			dt = "http://www.w3.org/2001/XMLSchema#double"
		}
		return Const(rdf.NewTypedLiteral(t.text, dt)), nil
	case tPunct:
		// 'a' shorthand for rdf:type in predicate position.
		if isPredicate && t.text == "a" {
			p.i++
			return Const(rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")), nil
		}
	case tIdent:
		if isPredicate && strings.EqualFold(t.text, "a") {
			p.i++
			return Const(rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")), nil
		}
	}
	return Node{}, p.errorf("expected term or variable, found %q", t.text)
}

func (p *parser) parseFilter() (Expression, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseOrExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseOrExpr() (Expression, error) {
	l, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("||") {
		r, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		l = &LogicalExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAndExpr() (Expression, error) {
	l, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("&&") {
		r, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		l = &LogicalExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnaryExpr() (Expression, error) {
	if p.punct("!") {
		x, err := p.parseUnaryExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{X: x}, nil
	}
	if p.punct("(") {
		e, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	// builtin functions
	switch {
	case p.keyword("BOUND"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().kind != tVar {
			return nil, p.errorf("BOUND expects a variable")
		}
		v := p.cur().text
		p.i++
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &BoundExpr{Var: v}, nil
	case p.keyword("REGEX"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if p.cur().kind != tString {
			return nil, p.errorf("REGEX expects a string pattern")
		}
		pat := p.cur().text
		p.i++
		flags := ""
		if p.punct(",") {
			if p.cur().kind != tString {
				return nil, p.errorf("REGEX flags must be a string")
			}
			if strings.Contains(p.cur().text, "i") {
				flags = "(?i)"
			}
			p.i++
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		re, err := regexp.Compile(flags + pat)
		if err != nil {
			return nil, p.errorf("bad REGEX pattern %q: %v", pat, err)
		}
		return &RegexExpr{X: x, Re: re}, nil
	case p.keyword("CONTAINS"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		x, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if p.cur().kind != tString {
			return nil, p.errorf("CONTAINS expects a string needle")
		}
		needle := p.cur().text
		p.i++
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &ContainsExpr{X: x, Needle: needle}, nil
	}
	// comparison
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.punct(op) {
			r, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			return &CompareExpr{Op: op, L: l, R: r}, nil
		}
	}
	return nil, p.errorf("expected comparison operator, found %q", p.cur().text)
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tVar:
		p.i++
		return Operand{IsVar: true, Var: t.text}, nil
	case tIRI:
		p.i++
		return Operand{Term: rdf.NewIRI(t.text)}, nil
	case tPrefixed:
		iri, err := p.expandPrefixed(t.text, t.pos)
		if err != nil {
			return Operand{}, err
		}
		p.i++
		return Operand{Term: rdf.NewIRI(iri)}, nil
	case tString:
		p.i++
		switch {
		case t.lang != "":
			return Operand{Term: rdf.NewLangLiteral(t.text, t.lang)}, nil
		case t.datatype != "":
			return Operand{Term: rdf.NewTypedLiteral(t.text, t.datatype)}, nil
		default:
			return Operand{Term: rdf.NewLiteral(t.text)}, nil
		}
	case tNumber:
		p.i++
		dt := "http://www.w3.org/2001/XMLSchema#integer"
		if strings.ContainsAny(t.text, ".eE") {
			dt = "http://www.w3.org/2001/XMLSchema#double"
		}
		return Operand{Term: rdf.NewTypedLiteral(t.text, dt)}, nil
	}
	return Operand{}, p.errorf("expected operand, found %q", t.text)
}
