package rdf

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"strings"
	"sync"
)

// TermID is a term's id in a store's dictionary. Ids and Term.Keys map
// one to one, so two terms are equal exactly when their ids are.
type TermID uint32

// Unbound is no term: a wildcard position of View.Match, and the value of
// an unbound variable to callers that keep rows of ids. No term gets this
// id, as a store holds fewer than 2^32-1 terms.
const Unbound TermID = math.MaxUint32

// IDTriple is a triple in dictionary ids, the form the store indexes.
type IDTriple struct{ S, P, O TermID }

// Store is an in-memory triple store with dictionary-encoded terms and three
// hash indexes covering every access pattern a basic graph pattern needs:
// SPO (bound subject), POS (bound predicate), OSP (bound object). Reads and
// writes are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	dict    map[string]TermID
	terms   []Term
	triples map[IDTriple]struct{}
	spo     map[TermID]map[IDTriple]struct{}
	pos     map[TermID]map[IDTriple]struct{}
	osp     map[TermID]map[IDTriple]struct{}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dict:    make(map[string]TermID),
		triples: make(map[IDTriple]struct{}),
		spo:     make(map[TermID]map[IDTriple]struct{}),
		pos:     make(map[TermID]map[IDTriple]struct{}),
		osp:     make(map[TermID]map[IDTriple]struct{}),
	}
}

func (st *Store) intern(t Term) TermID {
	k := t.Key()
	if id, ok := st.dict[k]; ok {
		return id
	}
	id := TermID(len(st.terms))
	st.dict[k] = id
	st.terms = append(st.terms, t)
	return id
}

// lookup returns the id of a term without interning.
func (st *Store) lookup(t Term) (TermID, bool) {
	id, ok := st.dict[t.Key()]
	return id, ok
}

// Add inserts a triple and reports whether it was new.
func (st *Store) Add(t Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.add(st.intern(t.S), t.P, t.O)
}

// add inserts the triple (s, p, o). Caller holds the write lock.
func (st *Store) add(s TermID, p, o Term) bool {
	e := IDTriple{s, st.intern(p), st.intern(o)}
	if _, dup := st.triples[e]; dup {
		return false
	}
	st.triples[e] = struct{}{}
	addIdx := func(m map[TermID]map[IDTriple]struct{}, k TermID) {
		set, ok := m[k]
		if !ok {
			set = make(map[IDTriple]struct{})
			m[k] = set
		}
		set[e] = struct{}{}
	}
	addIdx(st.spo, e.S)
	addIdx(st.pos, e.P)
	addIdx(st.osp, e.O)
	return true
}

// RemoveSubject deletes every triple with subject s under one lock and
// returns how many it deleted.
func (st *Store) RemoveSubject(s Term) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	sid, ok := st.lookup(s)
	if !ok {
		return 0
	}
	return st.removeSubject(sid)
}

// removeSubject deletes every triple with subject sid. Caller holds the
// write lock.
func (st *Store) removeSubject(sid TermID) int {
	set := st.spo[sid]
	n := len(set)
	for e := range set {
		delete(st.triples, e)
		delete(st.pos[e.P], e)
		delete(st.osp[e.O], e)
	}
	clear(set)
	return n
}

// ReplaceSubject replaces every triple with subject s by one triple
// (s, p, o) per pair of po, under one write lock: a reader sees the
// subject's old triples or its new ones, never a mix of the two. po runs
// under that lock, so it must not call the store.
func (st *Store) ReplaceSubject(s Term, po iter.Seq2[Term, Term]) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sid, known := st.lookup(s)
	if known {
		st.removeSubject(sid)
	}
	for p, o := range po {
		if !known {
			sid, known = st.intern(s), true
		}
		st.add(sid, p, o)
	}
}

// Read calls fn with a view of the store, holding the read lock for the
// whole call: every read through the view sees one state of the store.
// fn must not write to the store, and a view must not outlive fn.
func (st *Store) Read(fn func(View)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	fn(View{st})
}

// View reads a store under the read lock Store.Read holds. Its methods
// take no lock themselves: taking the read lock again while a writer
// waits would deadlock.
type View struct{ st *Store }

// Lookup returns the id of a term, and false when the store has none.
func (v View) Lookup(t Term) (TermID, bool) { return v.st.lookup(t) }

// Term returns the term with the given id.
func (v View) Term(id TermID) Term { return v.st.terms[id] }

// Match appends to dst every triple matching the pattern, Unbound
// positions being wildcards, in N-Triples text order (Triple.String), and
// returns the extended slice. The order is computed without building that
// text, and the triples stay in ids.
func (v View) Match(s, p, o TermID, dst []IDTriple) []IDTriple {
	st := v.st
	// Pick the most selective available index.
	var candidates map[IDTriple]struct{}
	switch {
	case s != Unbound:
		candidates = st.spo[s]
	case o != Unbound:
		candidates = st.osp[o]
	case p != Unbound:
		candidates = st.pos[p]
	default:
		candidates = st.triples
	}
	from := len(dst)
	for e := range candidates {
		if (s == Unbound || e.S == s) && (p == Unbound || e.P == p) && (o == Unbound || e.O == o) {
			dst = append(dst, e)
		}
	}
	slices.SortFunc(dst[from:], st.compare)
	return dst
}

// compare orders encoded triples by their N-Triples text (Triple.String)
// without building it. Two different triples can share one text (an IRI
// containing "> <", a literal with both a language and a datatype); those
// are ordered term by term on their fields. Caller holds a read lock.
func (st *Store) compare(x, y IDTriple) int {
	xs, ys := [3]TermID{x.S, x.P, x.O}, [3]TermID{y.S, y.P, y.O}
	// Equal leading terms have equal text: start at the first that differs.
	k := 0
	for k < 3 && xs[k] == ys[k] {
		k++
	}
	if k == 3 {
		return 0
	}
	if a, b := &st.terms[xs[k]], &st.terms[ys[k]]; a.Kind == IRI && b.Kind == IRI {
		if c, ok := compareIRIForms(a.Value, b.Value); ok {
			return c
		}
	}
	a := [3]*Term{&st.terms[x.S], &st.terms[x.P], &st.terms[x.O]}
	b := [3]*Term{&st.terms[y.S], &st.terms[y.P], &st.terms[y.O]}
	if c := compareNTriples(a, b, k); c != 0 {
		return c
	}
	for ; k < 3; k++ {
		if c := cmp.Or(cmp.Compare(a[k].Kind, b[k].Kind), strings.Compare(a[k].Value, b[k].Value),
			strings.Compare(a[k].Lang, b[k].Lang), strings.Compare(a[k].Datatype, b[k].Datatype)); c != 0 {
			return c
		}
	}
	return 0
}

// compareIRIForms orders the N-Triples forms of two triples whose first
// differing terms are the different IRIs <a> and <b>. Unless one value is
// a prefix of the other, the forms first differ where the values do. When
// a is a proper prefix of b, a's form goes on with '>' and b's with the
// byte after a; ok is false only when that byte is '>' too, and the order
// depends on what follows.
func compareIRIForms(a, b string) (c int, ok bool) {
	c = strings.Compare(a, b)
	switch {
	case c < 0 && len(a) < len(b) && b[:len(a)] == a:
		return cmp.Compare('>', b[len(a)]), b[len(a)] != '>'
	case c > 0 && len(b) < len(a) && a[:len(b)] == b:
		return cmp.Compare(a[len(b)], '>'), a[len(b)] != '>'
	}
	return c, true
}
