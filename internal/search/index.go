package search

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// posting is one document entry in a term's posting list. Positions are
// token offsets, kept for phrase queries.
type posting struct {
	doc       int
	freq      int
	positions []int
}

// Index is an in-memory inverted index with TF-IDF scoring. Documents are
// identified by string ids (page titles); the index assigns dense internal
// numbers, reusing slots freed by removals. Each document records its own
// distinct-term list so updates and removals cost O(terms in the document)
// instead of a scan over the whole postings map, and every posting list is
// kept sorted by document number so per-document lookups (phrase checks)
// binary-search instead of scanning. Safe for concurrent reads; writes take
// the exclusive lock.
//
// The engine keeps one Index over the whole corpus, so the TF-IDF inputs
// are the index's own: the live document count and each term's posting
// length, read under the same lock as the postings they weight.
type Index struct {
	mu       sync.RWMutex
	docs     []string
	docIdx   map[string]int
	postings map[string][]posting // every list sorted by doc
	docLen   []int
	docTerms [][]string // distinct terms per live doc, sorted
	free     []int      // slots released by Remove, reused by Add
	accPool  sync.Pool  // *accumulator, reused across searches
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{
		docIdx:   make(map[string]int),
		postings: make(map[string][]posting),
	}
	ix.accPool.New = func() any { return new(accumulator) }
	return ix
}

// accumulator is a dense per-document scoring scratchpad. touched records
// which slots were written so release only zeroes those, keeping the reset
// cost proportional to the candidate set, not the corpus.
type accumulator struct {
	scores  []float64
	matched []int
	touched []int
}

func (ix *Index) acquireAcc(n int) *accumulator {
	a := ix.accPool.Get().(*accumulator)
	if cap(a.scores) < n {
		a.scores = make([]float64, n)
		a.matched = make([]int, n)
	}
	a.scores = a.scores[:n]
	a.matched = a.matched[:n]
	return a
}

func (ix *Index) releaseAcc(a *accumulator) {
	for _, d := range a.touched {
		a.scores[d] = 0
		a.matched[d] = 0
	}
	a.touched = a.touched[:0]
	ix.accPool.Put(a)
}

// Add indexes a document's text under the given id, replacing any previous
// content for that id. It returns the distinct terms the document gained
// and lost relative to its previous content (everything is "added" for a
// new document), so callers maintaining derived structures — the
// autocomplete trie — can update them incrementally.
func (ix *Index) Add(id, text string) (added, removed []string) {
	tokens := Tokenize(text)
	positions := make(map[string][]int, len(tokens))
	for i, t := range tokens {
		positions[t] = append(positions[t], i)
	}
	terms := make([]string, 0, len(positions))
	for t := range positions {
		terms = append(terms, t)
	}
	sort.Strings(terms)

	ix.mu.Lock()
	defer ix.mu.Unlock()
	doc, exists := ix.docIdx[id]
	if exists {
		// Diff against the previous content: drop stale postings, rewrite
		// surviving ones in place, insert the new ones.
		oldSet := make(map[string]bool, len(ix.docTerms[doc]))
		for _, t := range ix.docTerms[doc] {
			oldSet[t] = true
			if _, still := positions[t]; !still {
				ix.removePosting(t, doc)
				removed = append(removed, t)
			}
		}
		for _, t := range terms {
			pos := positions[t]
			if oldSet[t] {
				p := ix.findPosting(t, doc)
				p.freq, p.positions = len(pos), pos
			} else {
				ix.insertPosting(t, posting{doc: doc, freq: len(pos), positions: pos})
				added = append(added, t)
			}
		}
	} else {
		if n := len(ix.free); n > 0 {
			doc = ix.free[n-1]
			ix.free = ix.free[:n-1]
			ix.docs[doc] = id
		} else {
			doc = len(ix.docs)
			ix.docs = append(ix.docs, id)
			ix.docLen = append(ix.docLen, 0)
			ix.docTerms = append(ix.docTerms, nil)
		}
		ix.docIdx[id] = doc
		for _, t := range terms {
			pos := positions[t]
			ix.insertPosting(t, posting{doc: doc, freq: len(pos), positions: pos})
		}
		added = terms
	}
	ix.docLen[doc] = len(tokens)
	ix.docTerms[doc] = terms
	return added, removed
}

// Remove deletes a document from the index and returns the distinct terms
// it carried (nil when the id was unknown). Its dense slot is recycled.
func (ix *Index) Remove(id string) (removed []string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	doc, ok := ix.docIdx[id]
	if !ok {
		return nil
	}
	removed = ix.docTerms[doc]
	for _, t := range removed {
		ix.removePosting(t, doc)
	}
	delete(ix.docIdx, id)
	ix.docs[doc] = ""
	ix.docLen[doc] = 0
	ix.docTerms[doc] = nil
	ix.free = append(ix.free, doc)
	return removed
}

// Has reports whether the id is currently indexed.
func (ix *Index) Has(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	_, ok := ix.docIdx[id]
	return ok
}

// insertPosting places p into term's doc-sorted posting list. Caller holds
// the write lock. New documents take the highest doc number, so the common
// case is a plain append.
func (ix *Index) insertPosting(term string, p posting) {
	list := ix.postings[term]
	if n := len(list); n == 0 || list[n-1].doc < p.doc {
		ix.postings[term] = append(list, p)
		return
	}
	i := sort.Search(len(list), func(k int) bool { return list[k].doc >= p.doc })
	list = append(list, posting{})
	copy(list[i+1:], list[i:])
	list[i] = p
	ix.postings[term] = list
}

// removePosting deletes the (term, doc) posting if present. Caller holds
// the write lock.
func (ix *Index) removePosting(term string, doc int) {
	list := ix.postings[term]
	i := sort.Search(len(list), func(k int) bool { return list[k].doc >= doc })
	if i >= len(list) || list[i].doc != doc {
		return
	}
	copy(list[i:], list[i+1:])
	list = list[:len(list)-1]
	if len(list) == 0 {
		delete(ix.postings, term)
	} else {
		ix.postings[term] = list
	}
}

// NumDocs returns the number of live documents.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docIdx)
}

// Hit is one scored search result.
type Hit struct {
	ID    string
	Score float64
}

// Mode selects the boolean semantics of multi-term queries.
type Mode int

const (
	// ModeAll requires every query term (AND).
	ModeAll Mode = iota
	// ModeAny requires at least one query term (OR).
	ModeAny
)

// Search scores documents against the query with TF-IDF (cosine-ish, length
// normalized by raw token count) and returns hits sorted by descending
// score, ties broken by id. Double-quoted spans are phrase constraints:
// every quoted phrase must occur verbatim (token-adjacent) in the document.
// An empty query returns nil.
func (ix *Index) Search(query string, mode Mode) []Hit {
	hits := ix.Hits(query, mode)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	return hits
}

// Hits returns the scored matches in unspecified order. Callers that apply
// their own post-filtering and selection (the engine) use this to avoid a
// throwaway full sort.
func (ix *Index) Hits(query string, mode Mode) []Hit {
	phrases, rest := extractPhrases(query)
	terms := Tokenize(rest)
	for _, p := range phrases {
		terms = append(terms, Tokenize(p)...)
	}
	if len(terms) == 0 {
		return nil
	}
	// dedupe query terms
	uniq := make([]string, 0, len(terms))
	seen := map[string]bool{}
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.docIdx)
	if n == 0 {
		return nil
	}
	acc := ix.acquireAcc(len(ix.docs))
	defer ix.releaseAcc(acc)
	var hits []Hit
	for _, term := range uniq {
		list := ix.postings[term]
		if len(list) == 0 {
			continue
		}
		w := idf(n, len(list))
		for i := range list {
			p := &list[i]
			if acc.matched[p.doc] == 0 {
				acc.touched = append(acc.touched, p.doc)
			}
			acc.matched[p.doc]++
			tf := float64(p.freq) / float64(ix.docLen[p.doc])
			acc.scores[p.doc] += tf * w
		}
	}
	for _, doc := range acc.touched {
		if mode == ModeAll && acc.matched[doc] < len(uniq) {
			continue
		}
		ok := true
		for _, p := range phrases {
			if !ix.hasPhraseLocked(doc, Tokenize(p)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		hits = append(hits, Hit{ID: ix.docs[doc], Score: acc.scores[doc]})
	}
	return hits
}

// DocMatcher is a keyword query compiled (tokenized, phrases split, terms
// deduplicated) once for repeated per-document evaluation — the
// per-candidate path of filter-pushdown execution, which scores only the
// documents of a pruned candidate set and never touches whole posting
// lists. Compile once, then Score costs O(query terms · log postings) per
// document.
type DocMatcher struct {
	ix      *Index
	uniq    []string
	phrases [][]string // tokenized phrase constraints
	mode    Mode
}

// CompileDocMatcher parses the query for per-document scoring.
func (ix *Index) CompileDocMatcher(query string, mode Mode) *DocMatcher {
	phrases, rest := extractPhrases(query)
	terms := Tokenize(rest)
	tokenized := make([][]string, 0, len(phrases))
	for _, p := range phrases {
		toks := Tokenize(p)
		tokenized = append(tokenized, toks)
		terms = append(terms, toks...)
	}
	uniq := make([]string, 0, len(terms))
	seen := map[string]bool{}
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	return &DocMatcher{ix: ix, uniq: uniq, phrases: tokenized, mode: mode}
}

// Score evaluates the compiled query against one document: it reports
// whether the document matches (same semantics as Search — every term for
// ModeAll, at least one for ModeAny, every quoted phrase verbatim) and its
// TF-IDF score. The score is accumulated term by term in the same order as
// the posting-driven scoring loop, so it is bit-identical to the score
// Search reports for the same document.
func (dm *DocMatcher) Score(id string) (float64, bool) {
	ix := dm.ix
	if len(dm.uniq) == 0 {
		return 0, false
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	doc, ok := ix.docIdx[id]
	if !ok {
		return 0, false
	}
	n := len(ix.docIdx)
	var score float64
	matched := 0
	for _, term := range dm.uniq {
		list := ix.postings[term]
		p := findPosting(list, doc)
		if p == nil {
			continue
		}
		matched++
		w := idf(n, len(list))
		tf := float64(p.freq) / float64(ix.docLen[doc])
		score += tf * w
	}
	if matched == 0 || (dm.mode == ModeAll && matched < len(dm.uniq)) {
		return 0, false
	}
	for _, toks := range dm.phrases {
		if !ix.hasPhraseLocked(doc, toks) {
			return 0, false
		}
	}
	return score, true
}

// EstimateHits bounds the number of documents the query can match from the
// posting-list lengths alone: the shortest list for ModeAll (every term is
// required), the capped sum for ModeAny. Used for selectivity ordering.
func (ix *Index) EstimateHits(query string, mode Mode) int {
	phrases, rest := extractPhrases(query)
	terms := Tokenize(rest)
	for _, p := range phrases {
		terms = append(terms, Tokenize(p)...)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(terms) == 0 {
		return 0
	}
	n := len(ix.docIdx)
	if mode == ModeAll {
		min := n
		for _, t := range terms {
			if l := len(ix.postings[t]); l < min {
				min = l
			}
		}
		return min
	}
	sum := 0
	for _, t := range terms {
		sum += len(ix.postings[t])
		if sum >= n {
			return n
		}
	}
	return sum
}

// extractPhrases splits a query into double-quoted phrases and the
// remaining free text. Unbalanced quotes treat the tail as free text.
func extractPhrases(query string) (phrases []string, rest string) {
	var b []byte
	for {
		open := strings.IndexByte(query, '"')
		if open < 0 {
			b = append(b, query...)
			break
		}
		close := strings.IndexByte(query[open+1:], '"')
		if close < 0 {
			b = append(b, query...)
			break
		}
		b = append(b, query[:open]...)
		b = append(b, ' ')
		phrase := query[open+1 : open+1+close]
		if phrase != "" {
			phrases = append(phrases, phrase)
		}
		query = query[open+close+2:]
	}
	return phrases, string(b)
}

// hasPhraseLocked reports whether the document contains the tokens at
// consecutive positions. Caller holds at least a read lock.
func (ix *Index) hasPhraseLocked(doc int, tokens []string) bool {
	if len(tokens) == 0 {
		return true
	}
	// Positions of the first token anchor the check.
	first := ix.findPosting(tokens[0], doc)
	if first == nil {
		return false
	}
	for _, start := range first.positions {
		match := true
		for k := 1; k < len(tokens); k++ {
			p := ix.findPosting(tokens[k], doc)
			if p == nil || !containsInt(p.positions, start+k) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// idf is the inverse document frequency weight of a term posted in df of
// the index's n live documents. Caller holds at least a read lock, so n
// and df come from one index state.
func idf(n, df int) float64 {
	return math.Log(float64(n)/float64(df)) + 1
}

// findPosting binary-searches term's doc-sorted posting list.
func (ix *Index) findPosting(term string, doc int) *posting {
	return findPosting(ix.postings[term], doc)
}

// findPosting binary-searches a doc-sorted posting list.
func findPosting(list []posting, doc int) *posting {
	i := sort.Search(len(list), func(k int) bool { return list[k].doc >= doc })
	if i < len(list) && list[i].doc == doc {
		return &list[i]
	}
	return nil
}

func containsInt(sorted []int, v int) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}
