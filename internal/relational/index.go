package relational

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Index is an ordered secondary index over one column: (value, row id)
// entries in key order, NULLs first, equal keys by row id descending. Row
// ids are fresh and increasing (Table.nextID), so the pair is a total
// order and every entry has one place: Delete is a single descent, and an
// equal-key run read backwards is its ids ascending.
//
// The entries live in a height-2 B+-tree: leaves of at most leafCap
// entries, found by binary search over the leaves' last entries, plus a
// Fenwick tree of leaf sizes that gives the planner's statistics O(log n)
// rank and select by global position. A write shifts entries within one
// leaf: O(log n + leafCap), plus an O(n/leafCap) rebuild of the size tree
// when a leaf splits, merges or empties, so a page write's index cost
// barely grows with the table. Scans walk the leaves in place.
type Index struct {
	Column string
	Pos    int // column position in the table schema
	Unique bool
	leaves [][]entry // non-empty, in order
	sizes  fenwick   // over len(leaves[i])
	n      int
}

// entry is one indexed (value, row id) pair.
type entry struct {
	key Value
	id  int64
}

// leafCap bounds a leaf: big enough that the directory stays a small
// fraction of the entries, small enough that a leaf shift is cheap.
const leafCap = 128

// NewIndex creates an empty index over the column at position pos.
func NewIndex(column string, pos int, unique bool) *Index {
	return &Index{Column: column, Pos: pos, Unique: unique}
}

// seek returns the leaf and offset of the first entry satisfying pred,
// which must be false for a prefix of the entries and true for the rest;
// (len(leaves), 0) when no entry does.
func (ix *Index) seek(pred func(e *entry) bool) (li, off int) {
	li = sort.Search(len(ix.leaves), func(i int) bool {
		l := ix.leaves[i]
		return pred(&l[len(l)-1])
	})
	if li == len(ix.leaves) {
		return li, 0
	}
	l := ix.leaves[li]
	return li, sort.Search(len(l), func(j int) bool { return pred(&l[j]) })
}

// pos converts a seek result to a global position.
func (ix *Index) pos(li, off int) int {
	if li == len(ix.leaves) {
		return ix.n
	}
	return ix.sizes.prefix(li) + off
}

// search returns the leaf and offset of the first entry whose key is >= v.
func (ix *Index) search(v Value) (li, off int) {
	return ix.seek(func(e *entry) bool { return Compare(e.key, v) >= 0 })
}

// seekEntry returns the leaf and offset of the first entry at or after
// (v, id) in index order.
func (ix *Index) seekEntry(v Value, id int64) (li, off int) {
	return ix.seek(func(e *entry) bool {
		if c := Compare(e.key, v); c != 0 {
			return c > 0
		}
		return e.id <= id
	})
}

// at returns the entry at global position p (0 <= p < Len).
func (ix *Index) at(p int) *entry {
	li, off := ix.sizes.find(p)
	return &ix.leaves[li][off]
}

// scan calls fn on every entry from leaf li, offset off, in index order
// until fn returns false, and reports whether it reached the end.
func (ix *Index) scan(li, off int, fn func(e *entry) bool) bool {
	for ; li < len(ix.leaves); li++ {
		l := ix.leaves[li]
		for j := off; j < len(l); j++ {
			if !fn(&l[j]) {
				return false
			}
		}
		off = 0
	}
	return true
}

// scanBack is scan over every entry in reverse index order.
func (ix *Index) scanBack(fn func(e *entry) bool) bool {
	return ix.scanBackFrom(len(ix.leaves), 0, fn)
}

// scanBackFrom calls fn on every entry before leaf li, offset off, in
// reverse index order until fn returns false, and reports whether it
// reached the first entry.
func (ix *Index) scanBackFrom(li, off int, fn func(e *entry) bool) bool {
	for {
		for off > 0 {
			off--
			if !fn(&ix.leaves[li][off]) {
				return false
			}
		}
		if li == 0 {
			return true
		}
		li--
		off = len(ix.leaves[li])
	}
}

// reindex rebuilds the size tree after leaves were added or removed.
func (ix *Index) reindex() {
	f := ix.sizes[:0]
	for _, l := range ix.leaves {
		f = append(f, len(l))
	}
	for i := range f {
		if j := i | (i + 1); j < len(f) {
			f[j] += f[i]
		}
	}
	ix.sizes = f
}

// Insert adds an entry. Duplicate values are allowed unless Unique; a
// duplicate on a unique index is an error (NULLs are exempt, as in SQL).
func (ix *Index) Insert(v Value, id int64) error {
	if ix.Unique && !v.IsNull() {
		if li, off := ix.search(v); li < len(ix.leaves) && Compare(ix.leaves[li][off].key, v) == 0 {
			return fmt.Errorf("relational: unique index %s violated by %s", ix.Column, v)
		}
	}
	e := entry{key: v, id: id}
	ix.n++
	if len(ix.leaves) == 0 {
		ix.leaves = [][]entry{{e}}
		ix.reindex()
		return nil
	}
	li, off := ix.seekEntry(v, id)
	if li == len(ix.leaves) { // after every entry: append to the last leaf
		li--
		off = len(ix.leaves[li])
	}
	l := ix.leaves[li]
	if len(l) == leafCap {
		ix.split(li, off, e)
		return nil
	}
	if len(l) == cap(l) {
		// Grow by a quarter, not append's doubling: leaves outnumber
		// everything else the index holds, so their slack is its heap.
		grown := make([]entry, len(l), min(leafCap, len(l)+len(l)/4+1))
		copy(grown, l)
		l = grown
	}
	l = l[:len(l)+1]
	copy(l[off+1:], l[off:])
	l[off] = e
	ix.leaves[li] = l
	ix.sizes.add(li, 1)
	return nil
}

// split replaces the full leaf li by two halves holding its entries with
// e inserted at off. Each half is a fresh copy, so neither keeps the old
// backing array (and the strings its stale slots reference) alive.
func (ix *Index) split(li, off int, e entry) {
	l := slices.Insert(ix.leaves[li], off, e) // the old leaf is dropped
	half := len(l) / 2
	ix.leaves[li] = slices.Clone(l[:half])
	ix.leaves = slices.Insert(ix.leaves, li+1, slices.Clone(l[half:]))
	ix.reindex()
}

// bulkBuild replaces the index contents from a table's row map: one sort
// and a leaf fill instead of n Inserts. The result holds the same entries
// in the same order as inserting the rows one by one in id order would,
// and unique violations are reported exactly as Insert would report them.
func (ix *Index) bulkBuild(rows map[int64]Row) error {
	es := make([]entry, 0, len(rows))
	for id, row := range rows {
		es = append(es, entry{key: row[ix.Pos], id: id})
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := Compare(a.key, b.key); c != 0 {
			return c
		}
		switch {
		case a.id > b.id:
			return -1
		case a.id < b.id:
			return 1
		}
		return 0
	})
	if ix.Unique {
		for i := 1; i < len(es); i++ {
			if !es[i].key.IsNull() && Compare(es[i-1].key, es[i].key) == 0 {
				return fmt.Errorf("relational: unique index %s violated by %s", ix.Column, es[i].key)
			}
		}
	}
	ix.leaves, ix.n = nil, len(es)
	for start := 0; start < len(es); start += leafCap {
		ix.leaves = append(ix.leaves, slices.Clone(es[start:min(start+leafCap, len(es))]))
	}
	ix.reindex()
	return nil
}

// Delete removes the (v, id) entry if present and reports success.
func (ix *Index) Delete(v Value, id int64) bool {
	li, off := ix.seekEntry(v, id)
	if li == len(ix.leaves) {
		return false
	}
	l := ix.leaves[li]
	if l[off].id != id || Compare(l[off].key, v) != 0 {
		return false
	}
	copy(l[off:], l[off+1:])
	l[len(l)-1] = entry{} // drop the stale slot's string reference
	l = l[:len(l)-1]
	ix.leaves[li] = l
	ix.n--
	ix.sizes.add(li, -1)
	switch {
	case len(l) == 0:
		ix.removeLeaf(li)
	case len(l) < leafCap/4:
		// Join a nearly empty leaf to a neighbour it fits beside with
		// room to spare, so deletes cannot leave a directory of slivers.
		if li+1 < len(ix.leaves) && len(l)+len(ix.leaves[li+1]) <= leafCap*3/4 {
			ix.merge(li)
		} else if li > 0 && len(l)+len(ix.leaves[li-1]) <= leafCap*3/4 {
			ix.merge(li - 1)
		}
	}
	return true
}

// merge joins leaves li and li+1 into one freshly allocated leaf.
func (ix *Index) merge(li int) {
	ix.leaves[li] = slices.Concat(ix.leaves[li], ix.leaves[li+1])
	ix.removeLeaf(li + 1)
}

// removeLeaf drops leaf li, whose entries are gone or moved elsewhere.
func (ix *Index) removeLeaf(li int) {
	ix.leaves = slices.Delete(ix.leaves, li, li+1)
	ix.reindex()
}

// Lookup returns the row ids whose key equals v (never NULL matches), in
// index order.
func (ix *Index) Lookup(v Value) []int64 {
	if v.IsNull() {
		return nil
	}
	var out []int64
	li, off := ix.search(v)
	ix.scan(li, off, func(e *entry) bool {
		if Compare(e.key, v) != 0 {
			return false
		}
		out = append(out, e.id)
		return true
	})
	return out
}

// eachEq calls fn with the row id of every entry whose key equals v (none
// for NULL) in ascending id order — its run read backwards, in place —
// until fn returns false.
func (ix *Index) eachEq(v Value, fn func(id int64) bool) {
	if v.IsNull() {
		return
	}
	li, off := ix.seek(func(e *entry) bool { return Compare(e.key, v) > 0 })
	n := ix.pos(li, off) - ix.pos(ix.search(v))
	ix.scanBackFrom(li, off, func(e *entry) bool {
		n--
		return n >= 0 && fn(e.id)
	})
}

// Range returns row ids with lo <= key <= hi (either bound may be omitted
// by passing a NULL Value and setting the has flag false), in index order.
// NULL keys are never returned.
func (ix *Index) Range(lo Value, hasLo bool, hi Value, hasHi bool) []int64 {
	li, off := ix.seek(func(e *entry) bool { return !e.key.IsNull() })
	if hasLo && !lo.IsNull() {
		li, off = ix.search(lo)
	}
	var out []int64
	ix.scan(li, off, func(e *entry) bool {
		if hasHi && Compare(e.key, hi) > 0 {
			return false
		}
		out = append(out, e.id)
		return true
	})
	return out
}

// Walk visits every entry in key order (reverse key order when desc),
// including NULL keys, grouping equal keys into one call. The ids of a run
// are always presented in ascending order regardless of direction, which is
// exactly the tie order a stable ORDER BY sort over an ascending-id scan
// produces. The ids slice is reused by the next call, so fn must not keep
// it. fn returning false stops the walk.
func (ix *Index) Walk(desc bool, fn func(key Value, ids []int64) bool) {
	var (
		ids []int64
		key Value
	)
	// A run holds its ids descending, so the ascending walk reverses each
	// run before emitting it and the descending walk, reading it
	// backwards, emits it as read.
	flush := func() bool {
		if !desc {
			slices.Reverse(ids)
		}
		ok := fn(key, ids)
		ids = ids[:0]
		return ok
	}
	visit := func(e *entry) bool {
		if len(ids) > 0 && Compare(key, e.key) != 0 && !flush() {
			return false
		}
		if len(ids) == 0 {
			key = e.key
		}
		ids = append(ids, e.id)
		return true
	}
	var done bool
	if desc {
		done = ix.scanBack(visit)
	} else {
		done = ix.scan(0, 0, visit)
	}
	if done && len(ids) > 0 {
		flush()
	}
}

// fenwick is a binary indexed tree over leaf sizes: element i holds the
// sum of the sizes of leaves i&(i+1) through i, so a prefix sum, a size
// change and finding the leaf that holds a position each cost O(log
// leaves).
type fenwick []int

// add changes leaf i's size by d.
func (f fenwick) add(i, d int) {
	for ; i < len(f); i |= i + 1 {
		f[i] += d
	}
}

// prefix returns the number of entries in leaves 0 through i-1.
func (f fenwick) prefix(i int) int {
	s := 0
	for i--; i >= 0; i = i&(i+1) - 1 {
		s += f[i]
	}
	return s
}

// find returns the leaf that holds global position p and p's offset in
// it, descending from the largest power-of-two span.
func (f fenwick) find(p int) (li, off int) {
	for step := 1 << (bits.Len(uint(len(f))) - 1); step > 0; step >>= 1 {
		if next := li + step; next <= len(f) && f[next-1] <= p {
			li = next
			p -= f[next-1]
		}
	}
	return li, p
}
