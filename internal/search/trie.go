package search

import (
	"sort"
	"strings"
	"sync"
)

// Trie is the prefix tree behind the query box's autocomplete feature.
// Entries carry weights (term frequency or page importance) so completions
// surface popular terms first. Inserts are reference-counted per weight
// class: an entry inserted by several documents stays alive until every
// document has released it, which is what lets the engine maintain the trie
// incrementally as pages change instead of rebuilding it. Children are kept
// in sorted slices rather than maps, so completion walks run in order
// without any per-node sorting.
type Trie struct {
	mu   sync.RWMutex
	root *trieNode
	size int
}

type trieNode struct {
	keys     []rune      // sorted child labels
	children []*trieNode // parallel to keys
	// counts tracks the live references per weight class; entries keeps the
	// original-cased text first inserted at each class. The effective
	// completion weight is the maximum live class.
	counts  map[float64]int
	entries map[float64]string
	weight  float64 // max live class; > 0 marks end of an entry
	entry   string
}

// child returns the node under label r, or nil.
func (n *trieNode) child(r rune) *trieNode {
	i := sort.Search(len(n.keys), func(k int) bool { return n.keys[k] >= r })
	if i < len(n.keys) && n.keys[i] == r {
		return n.children[i]
	}
	return nil
}

// ensureChild returns the node under label r, creating it in sorted
// position when absent.
func (n *trieNode) ensureChild(r rune) *trieNode {
	i := sort.Search(len(n.keys), func(k int) bool { return n.keys[k] >= r })
	if i < len(n.keys) && n.keys[i] == r {
		return n.children[i]
	}
	c := &trieNode{}
	n.keys = append(n.keys, 0)
	n.children = append(n.children, nil)
	copy(n.keys[i+1:], n.keys[i:])
	copy(n.children[i+1:], n.children[i:])
	n.keys[i] = r
	n.children[i] = c
	return c
}

// dropChild removes the node under label r, if present.
func (n *trieNode) dropChild(r rune) {
	i := sort.Search(len(n.keys), func(k int) bool { return n.keys[k] >= r })
	if i >= len(n.keys) || n.keys[i] != r {
		return
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i], n.children[i+1:]...)
}

// NewTrie returns an empty trie.
func NewTrie() *Trie {
	return &Trie{root: &trieNode{}}
}

// Insert adds one reference to an entry at the given weight class. The
// completion surfaces the highest weight class that still holds references.
// Empty entries and non-positive weights are ignored.
func (t *Trie) Insert(entry string, weight float64) {
	entry = strings.TrimSpace(entry)
	if entry == "" || weight <= 0 {
		return
	}
	key := strings.ToLower(entry)
	t.mu.Lock()
	defer t.mu.Unlock()
	node := t.root
	for _, r := range key {
		node = node.ensureChild(r)
	}
	if node.counts == nil {
		node.counts = make(map[float64]int, 1)
		node.entries = make(map[float64]string, 1)
	}
	if node.weight == 0 {
		t.size++
	}
	node.counts[weight]++
	if _, ok := node.entries[weight]; !ok {
		node.entries[weight] = entry
	}
	if weight > node.weight {
		node.weight = weight
		node.entry = node.entries[weight]
	}
}

// Remove releases one reference to an entry at the given weight class.
// When the class drops to zero references the completion falls back to the
// next-highest live class; when no class remains the entry disappears and
// empty branches are pruned. Removing an unknown entry or class is a no-op.
func (t *Trie) Remove(entry string, weight float64) {
	entry = strings.TrimSpace(entry)
	if entry == "" || weight <= 0 {
		return
	}
	key := strings.ToLower(entry)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Walk down remembering the path for pruning on the way back.
	type step struct {
		node *trieNode
		r    rune
	}
	var path []step
	node := t.root
	for _, r := range key {
		child := node.child(r)
		if child == nil {
			return
		}
		path = append(path, step{node, r})
		node = child
	}
	if node.counts[weight] == 0 {
		return
	}
	node.counts[weight]--
	if node.counts[weight] > 0 {
		return
	}
	delete(node.counts, weight)
	delete(node.entries, weight)
	// Fall back to the next-highest live class.
	node.weight, node.entry = 0, ""
	for w, text := range node.entries {
		if w > node.weight {
			node.weight, node.entry = w, text
		}
	}
	if node.weight > 0 {
		return
	}
	t.size--
	// Prune now-empty branches bottom-up.
	for i := len(path) - 1; i >= 0; i-- {
		if len(node.keys) > 0 || node.weight > 0 {
			break
		}
		parent := path[i]
		parent.node.dropChild(parent.r)
		node = parent.node
	}
}

// Completion is one autocomplete suggestion.
type Completion struct {
	Text   string
	Weight float64
}

// Complete returns up to k completions of the prefix, ordered by descending
// weight then text. The prefix matches case-insensitively.
func (t *Trie) Complete(prefix string, k int) []Completion {
	if k <= 0 {
		return nil
	}
	key := strings.ToLower(strings.TrimSpace(prefix))
	t.mu.RLock()
	defer t.mu.RUnlock()
	node := t.root
	for _, r := range key {
		if node = node.child(r); node == nil {
			return nil
		}
	}
	var all []Completion
	var walk func(n *trieNode)
	walk = func(n *trieNode) {
		if n.weight > 0 {
			all = append(all, Completion{Text: n.entry, Weight: n.weight})
		}
		// Children are stored sorted, so the walk is deterministic.
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(node)
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Text < all[j].Text
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
