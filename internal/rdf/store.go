package rdf

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

type termID uint32

// triple is the encoded form.
type enc struct{ s, p, o termID }

// Store is an in-memory triple store with dictionary-encoded terms and three
// hash indexes covering every access pattern a basic graph pattern needs:
// SPO (bound subject), POS (bound predicate), OSP (bound object). Reads and
// writes are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	dict    map[string]termID
	terms   []Term
	triples map[enc]struct{}
	spo     map[termID]map[enc]struct{}
	pos     map[termID]map[enc]struct{}
	osp     map[termID]map[enc]struct{}
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dict:    make(map[string]termID),
		triples: make(map[enc]struct{}),
		spo:     make(map[termID]map[enc]struct{}),
		pos:     make(map[termID]map[enc]struct{}),
		osp:     make(map[termID]map[enc]struct{}),
	}
}

func (st *Store) intern(t Term) termID {
	k := t.Key()
	if id, ok := st.dict[k]; ok {
		return id
	}
	id := termID(len(st.terms))
	st.dict[k] = id
	st.terms = append(st.terms, t)
	return id
}

// lookup returns the id of a term without interning.
func (st *Store) lookup(t Term) (termID, bool) {
	id, ok := st.dict[t.Key()]
	return id, ok
}

// Add inserts a triple and reports whether it was new.
func (st *Store) Add(t Triple) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e := enc{st.intern(t.S), st.intern(t.P), st.intern(t.O)}
	if _, dup := st.triples[e]; dup {
		return false
	}
	st.triples[e] = struct{}{}
	addIdx := func(m map[termID]map[enc]struct{}, k termID) {
		set, ok := m[k]
		if !ok {
			set = make(map[enc]struct{})
			m[k] = set
		}
		set[e] = struct{}{}
	}
	addIdx(st.spo, e.s)
	addIdx(st.pos, e.p)
	addIdx(st.osp, e.o)
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
	set := st.spo[sid]
	n := len(set)
	for e := range set {
		delete(st.triples, e)
		delete(st.pos[e.p], e)
		delete(st.osp[e.o], e)
	}
	clear(set)
	return n
}

// decode rebuilds a Triple from its encoded form. Caller holds a read lock.
func (st *Store) decode(e enc) Triple {
	return Triple{S: st.terms[e.s], P: st.terms[e.p], O: st.terms[e.o]}
}

// Match returns all triples matching the pattern; nil components are
// wildcards. Results are in N-Triples text order (Triple.String), for
// determinism; the order is computed without materializing that text.
func (st *Store) Match(s, p, o *Term) []Triple {
	st.mu.RLock()
	defer st.mu.RUnlock()

	// Resolve bound terms to ids; a bound term missing from the dictionary
	// matches nothing.
	var sid, pid, oid termID
	var hasS, hasP, hasO bool
	if s != nil {
		id, ok := st.lookup(*s)
		if !ok {
			return nil
		}
		sid, hasS = id, true
	}
	if p != nil {
		id, ok := st.lookup(*p)
		if !ok {
			return nil
		}
		pid, hasP = id, true
	}
	if o != nil {
		id, ok := st.lookup(*o)
		if !ok {
			return nil
		}
		oid, hasO = id, true
	}

	// Pick the most selective available index.
	var candidates map[enc]struct{}
	switch {
	case hasS:
		candidates = st.spo[sid]
	case hasO:
		candidates = st.osp[oid]
	case hasP:
		candidates = st.pos[pid]
	default:
		candidates = st.triples
	}

	hits := make([]enc, 0, len(candidates))
	for e := range candidates {
		if hasS && e.s != sid {
			continue
		}
		if hasP && e.p != pid {
			continue
		}
		if hasO && e.o != oid {
			continue
		}
		hits = append(hits, e)
	}
	if len(hits) == 0 {
		return nil
	}
	slices.SortFunc(hits, st.compare)
	out := make([]Triple, len(hits))
	for i, e := range hits {
		out[i] = st.decode(e)
	}
	return out
}

// compare orders encoded triples by their N-Triples text (Triple.String)
// without building it. Two different triples can share one text (an IRI
// containing "> <", a literal with both a language and a datatype); those
// are ordered term by term on their fields. Caller holds a read lock.
func (st *Store) compare(x, y enc) int {
	xs, ys := [3]termID{x.s, x.p, x.o}, [3]termID{y.s, y.p, y.o}
	// Equal leading terms have equal text: start at the first that differs.
	k := 0
	for k < 3 && xs[k] == ys[k] {
		k++
	}
	if k == 3 {
		return 0
	}
	a := [3]*Term{&st.terms[x.s], &st.terms[x.p], &st.terms[x.o]}
	b := [3]*Term{&st.terms[y.s], &st.terms[y.p], &st.terms[y.o]}
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
