// Package sortedset is the one sorted-string-set implementation behind
// every posting-set structure in the system: the search engine's
// structural metaIndex, the recommender's property/pair indexes and the
// tagging pipeline's tag→pages mirror all maintain "sorted slice of
// distinct strings" state, and before this package existed each of them
// hand-rolled the same binary-search insert/remove and two-pointer merge
// loops. Consolidating them here is what makes the rank/count core a
// single code path.
//
// Conventions:
//
//   - a set is a []string that is sorted ascending and duplicate-free;
//   - Insert/Remove return the updated slice (callers reassign, as with
//     append) plus whether anything changed;
//   - Intersect/Union/Diff take two sets and return a fresh slice, except
//     that Union returns its first operand unchanged when the second is
//     empty (documented on Union);
//   - the *Func variants operate on sorted slices of any element type
//     ordered by a three-way comparison, for keyed records (e.g. posting
//     entries carrying counts) that sort by an embedded key.
package sortedset

import "sort"

// Index locates v: the position where v is (or would be inserted) and
// whether it is present.
func Index(s []string, v string) (int, bool) {
	i := sort.SearchStrings(s, v)
	return i, i < len(s) && s[i] == v
}

// Contains reports membership.
func Contains(s []string, v string) bool {
	_, ok := Index(s, v)
	return ok
}

// Insert adds v, keeping the slice sorted and distinct. It returns the
// updated slice and whether v was actually new.
func Insert(s []string, v string) ([]string, bool) {
	i, ok := Index(s, v)
	if ok {
		return s, false
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// Remove deletes v. It returns the updated slice and whether v was
// present.
func Remove(s []string, v string) ([]string, bool) {
	i, ok := Index(s, v)
	if !ok {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}

// Clone copies a set (nil stays nil-length but never aliases).
func Clone(s []string) []string {
	return append([]string(nil), s...)
}

// FromSlice builds a set from arbitrary strings: a sorted, deduplicated
// copy.
func FromSlice(vs []string) []string {
	out := Clone(vs)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || out[w-1] != v {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// Intersect returns a ∩ b as a fresh slice.
func Intersect(a, b []string) []string {
	out := make([]string, 0, min(len(a), len(b)))
	IntersectWalk(a, b, func(v string) { out = append(out, v) })
	return out
}

// IntersectWalk calls fn for every element of a ∩ b, ascending. When one
// set is much smaller it gallops: each element of the small set is
// binary-searched in the large one, so the cost is O(small · log large)
// instead of O(small + large) — the shape facet counting hits when a rare
// value's postings meet a large match set.
func IntersectWalk(a, b []string, fn func(v string)) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return
	}
	if len(b) >= 16*len(a) {
		for _, v := range a {
			if Contains(b, v) {
				fn(v)
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// Union returns a ∪ b. The result is a fresh slice except in one
// documented case: when b is empty, a is returned as-is (callers merging
// an accumulator against many sets rely on this to avoid quadratic
// copying; treat the result as replacing a).
func Union(a, b []string) []string {
	if len(a) == 0 {
		return Clone(b)
	}
	if len(b) == 0 {
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns a \ b as a fresh slice.
func Diff(a, b []string) []string {
	out := make([]string, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// DiffWalk merge-diffs two set snapshots: onRemoved sees every element of
// prev missing from next, onAdded every element of next missing from prev,
// onKept every element present in both — each in ascending order. Nil
// callbacks are skipped. This is the incremental-maintenance primitive:
// every journal consumer retracts onRemoved and applies onAdded to move a
// page's old key set to its new one in O(|prev| + |next|).
func DiffWalk(prev, next []string, onRemoved, onAdded, onKept func(v string)) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		switch {
		case j >= len(next) || (i < len(prev) && prev[i] < next[j]):
			if onRemoved != nil {
				onRemoved(prev[i])
			}
			i++
		case i >= len(prev) || next[j] < prev[i]:
			if onAdded != nil {
				onAdded(next[j])
			}
			j++
		default:
			if onKept != nil {
				onKept(prev[i])
			}
			i++
			j++
		}
	}
}

// IndexFunc locates v in a slice sorted under cmp (three-way comparison):
// the position where v is (or would be inserted) and whether an element
// comparing equal is present.
func IndexFunc[T any](s []T, v T, cmp func(a, b T) int) (int, bool) {
	i := sort.Search(len(s), func(k int) bool { return cmp(s[k], v) >= 0 })
	return i, i < len(s) && cmp(s[i], v) == 0
}

// InsertFunc adds v to a slice sorted under cmp, replacing an existing
// element that compares equal (so keyed records update in place). It
// returns the updated slice and whether v's key was new.
func InsertFunc[T any](s []T, v T, cmp func(a, b T) int) ([]T, bool) {
	i, ok := IndexFunc(s, v, cmp)
	if ok {
		s[i] = v
		return s, false
	}
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s, true
}

// RemoveFunc deletes the element comparing equal to v from a slice sorted
// under cmp. It returns the updated slice and whether one was present.
func RemoveFunc[T any](s []T, v T, cmp func(a, b T) int) ([]T, bool) {
	i, ok := IndexFunc(s, v, cmp)
	if !ok {
		return s, false
	}
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1], true
}

// DiffWalkFunc merge-diffs two sorted snapshots of keyed records: elements
// whose keys left, arrived, or stayed (possibly with a changed payload —
// onKept receives both records) are reported in ascending key order. Nil
// callbacks are skipped.
func DiffWalkFunc[T any](prev, next []T, cmp func(a, b T) int, onRemoved, onAdded func(v T), onKept func(prev, next T)) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		switch {
		case j >= len(next) || (i < len(prev) && cmp(prev[i], next[j]) < 0):
			if onRemoved != nil {
				onRemoved(prev[i])
			}
			i++
		case i >= len(prev) || cmp(next[j], prev[i]) < 0:
			if onAdded != nil {
				onAdded(next[j])
			}
			j++
		default:
			if onKept != nil {
				onKept(prev[i], next[j])
			}
			i++
			j++
		}
	}
}
