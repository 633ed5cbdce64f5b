package search

import "sort"

// topK retains the m front-most items of a stream under less ("a sorts
// before b"), without ever holding more than m items. Internally it is a
// bounded binary heap whose root is the worst retained item, so each push
// against a full selector is one comparison in the common reject case and
// O(log m) otherwise. This is what lets Limit+Offset push down into query
// execution: selecting the top m of n candidates costs O(n log m) instead
// of the O(n log n) full sort.
type topK[T any] struct {
	m     int
	less  func(a, b T) bool
	items []T // heap-ordered: items[0] is the worst retained item
}

// newTopK returns a selector keeping the m best of about n offered items;
// m must be positive. The buffer starts at the smaller of the two, so a
// huge m allocates nothing it cannot fill.
func newTopK[T any](m, n int, less func(a, b T) bool) *topK[T] {
	return &topK[T]{m: m, less: less, items: make([]T, 0, max(min(m, n), 0))}
}

// push offers one item to the selector.
func (t *topK[T]) push(v T) {
	if len(t.items) < t.m {
		t.items = append(t.items, v)
		t.siftUp(len(t.items) - 1)
		return
	}
	if !t.less(v, t.items[0]) {
		return // not better than the worst retained item
	}
	t.items[0] = v
	t.siftDown(0)
}

// worse reports whether items[i] sorts after items[j] (the heap order).
func (t *topK[T]) worse(i, j int) bool { return t.less(t.items[j], t.items[i]) }

func (t *topK[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			return
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

func (t *topK[T]) siftDown(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}

// sorted returns the retained items in front-to-back order. The selector
// must not be pushed to afterwards.
func (t *topK[T]) sorted() []T {
	if len(t.items) == 0 {
		return nil
	}
	sort.Slice(t.items, func(i, j int) bool { return t.less(t.items[i], t.items[j]) })
	return t.items
}
