// Package tagging implements the dynamic tagging system of Section IV: tags
// fetched from the SMR (the Parser module), the Matrix Transformation
// module that turns tag co-occurrence into a 0/1 similarity matrix via
// cosine similarity with a 50 % threshold, the Graph module that reads the
// matrix as an undirected tag graph, the Max Clique module (Bron–Kerbosch,
// with and without pivoting), and the Font Size Calculation module
// implementing the paper's Eq. 6.
//
// The Pipeline is a consumer of the repository's change journal
// (smr.Change): instead of refetching all tag data per request, it mirrors
// tag→page assignments incrementally (smr.ChangeTag entries carry the tag,
// page changes re-read only that page's tag set), recomputes similarity
// rows only for tags whose page sets moved, and keeps the tag graph's
// connected components with their Bron–Kerbosch cliques. A cloud miss
// re-derives only the components around tags whose edges changed or that
// appeared or vanished — tracked exactly, with no content hash — and
// splices their cliques into the kept canonical clique list. When the journal's bounded window has been
// trimmed past the pipeline's position it falls back to the from-scratch
// FetchTagData path; the incremental and from-scratch paths produce
// identical clouds (modulo CliqueResult recursion accounting).
package tagging

import (
	"math"
	"sort"

	"repro/internal/graph"
)

// DefaultSimilarityThreshold is the paper's rule: "two tags considered
// similar for a threshold above 50%".
const DefaultSimilarityThreshold = 0.5

// TagData is the input to the pipeline: for every tag, the set of pages it
// appears on. The frequency of a tag is the number of page entries
// (assignments) it has.
type TagData struct {
	Tags  []string            // sorted tag names, index-aligned with the matrix
	Pages map[string][]string // tag -> sorted page titles carrying it
}

// NewTagData normalizes a tag→pages mapping: tags sorted, page lists sorted
// and deduped, empty tags dropped.
func NewTagData(pages map[string][]string) *TagData {
	td := &TagData{Pages: make(map[string][]string, len(pages))}
	for tag, ps := range pages {
		if tag == "" || len(ps) == 0 {
			continue
		}
		set := map[string]bool{}
		for _, p := range ps {
			set[p] = true
		}
		sorted := make([]string, 0, len(set))
		for p := range set {
			sorted = append(sorted, p)
		}
		sort.Strings(sorted)
		td.Pages[tag] = sorted
		td.Tags = append(td.Tags, tag)
	}
	sort.Strings(td.Tags)
	return td
}

// Frequency returns the number of pages carrying the tag.
func (td *TagData) Frequency(tag string) int { return len(td.Pages[tag]) }

// CosineSimilarity computes the cosine between two tags' page-incidence
// vectors: |A∩B| / √(|A|·|B|). Tags sharing no page have similarity 0.
func (td *TagData) CosineSimilarity(a, b string) float64 {
	pa, pb := td.Pages[a], td.Pages[b]
	if len(pa) == 0 || len(pb) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		switch {
		case pa[i] == pb[j]:
			inter++
			i++
			j++
		case pa[i] < pb[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / math.Sqrt(float64(len(pa))*float64(len(pb)))
}

// SimilarityMatrix is the Matrix Transformation module's output: entry
// (i, j) is 1 when the cosine similarity of tags i and j exceeds the
// threshold, 0 otherwise. The diagonal is 0.
func (td *TagData) SimilarityMatrix(threshold float64) [][]float64 {
	n := len(td.Tags)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if td.CosineSimilarity(td.Tags[i], td.Tags[j]) > threshold {
				m[i][j], m[j][i] = 1, 1
			}
		}
	}
	return m
}

// Graph is the Graph module: it reads the thresholded matrix as an
// undirected tag graph whose vertex i is td.Tags[i].
func (td *TagData) Graph(threshold float64) *graph.Undirected {
	return graph.FromAdjacencyMatrix(td.SimilarityMatrix(threshold))
}
