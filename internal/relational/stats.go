package relational

import (
	"math"
	"sort"
	"sync"
)

// plannerStats tracks what the cost-based planner chose and how good its
// cardinality estimates turned out to be. It has its own mutex because
// queries run under the database's read lock: many queries plan and
// record concurrently, and the counters are the only cross-query state.
type plannerStats struct {
	mu            sync.Mutex
	plansBuilt    uint64 // guarded by mu
	indexScans    uint64 // guarded by mu
	indexOrder    uint64 // guarded by mu
	fallbackScans uint64 // guarded by mu
	hashJoins     uint64 // guarded by mu
	nestedLoops   uint64 // guarded by mu
	joinReorders  uint64 // guarded by mu

	// errSample is a ring of multiplicative estimate errors
	// (max(ratio, 1/ratio) of (act+1)/(est+1)); guarded by mu.
	errSample []float64
	errNext   int // guarded by mu
	errSeen   int // guarded by mu
}

// estimateSampleSize bounds the estimate-error ring: recent enough to track
// drift, big enough for stable tail quantiles.
const estimateSampleSize = 512

// PlannerStats is a point-in-time snapshot of planner activity, the shape
// surfaced through /api/admin/stats.
type PlannerStats struct {
	PlansBuilt     uint64 `json:"plansBuilt"`
	IndexScans     uint64 `json:"indexScans"`
	IndexOrderHits uint64 `json:"indexOrderHits"`
	FallbackScans  uint64 `json:"fallbackScans"`
	HashJoins      uint64 `json:"hashJoins"`
	NestedLoops    uint64 `json:"nestedLoops"`
	JoinReorders   uint64 `json:"joinReorders"`
	// Estimate-error quantiles over the recent sample, as multiplicative
	// factors (1.0 = perfect; 4.0 = off by 4x in either direction).
	EstimateErrorP50 float64 `json:"estimateErrorP50"`
	EstimateErrorP90 float64 `json:"estimateErrorP90"`
	EstimateErrorP99 float64 `json:"estimateErrorP99"`
	EstimateSamples  int     `json:"estimateSamples"`
}

func (s *plannerStats) planBuilt(reordered bool) {
	s.mu.Lock()
	s.plansBuilt++
	if reordered {
		s.joinReorders++
	}
	s.mu.Unlock()
}

// countNode tallies one executed plan node by operator kind.
func (s *plannerStats) countNode(op string) {
	s.mu.Lock()
	switch op {
	case opIndexScan:
		s.indexScans++
	case opOrderedIndexScan:
		s.indexOrder++
	case opTableScan:
		s.fallbackScans++
	case opHashJoin:
		s.hashJoins++
	case opNestedLoop:
		s.nestedLoops++
	}
	s.mu.Unlock()
}

// observe records one (estimated, actual) row-count pair from an executed
// scan or join node.
func (s *plannerStats) observe(est, act int) {
	if est < 0 {
		return
	}
	ratio := (float64(act) + 1) / (float64(est) + 1)
	if ratio < 1 {
		ratio = 1 / ratio
	}
	s.mu.Lock()
	if s.errSample == nil {
		s.errSample = make([]float64, 0, estimateSampleSize)
	}
	if len(s.errSample) < estimateSampleSize {
		s.errSample = append(s.errSample, ratio)
	} else {
		s.errSample[s.errNext] = ratio
		s.errNext = (s.errNext + 1) % estimateSampleSize
	}
	s.errSeen++
	s.mu.Unlock()
}

// snapshot copies the counters and computes the error quantiles.
func (s *plannerStats) snapshot() PlannerStats {
	s.mu.Lock()
	out := PlannerStats{
		PlansBuilt:     s.plansBuilt,
		IndexScans:     s.indexScans,
		IndexOrderHits: s.indexOrder,
		FallbackScans:  s.fallbackScans,
		HashJoins:      s.hashJoins,
		NestedLoops:    s.nestedLoops,
		JoinReorders:   s.joinReorders,
		EstimateSamples: func() int {
			if s.errSeen < len(s.errSample) {
				return s.errSeen
			}
			return len(s.errSample)
		}(),
	}
	sample := append([]float64(nil), s.errSample...)
	s.mu.Unlock()
	if len(sample) > 0 {
		sort.Float64s(sample)
		out.EstimateErrorP50 = quantile(sample, 0.50)
		out.EstimateErrorP90 = quantile(sample, 0.90)
		out.EstimateErrorP99 = quantile(sample, 0.99)
	}
	return out
}

// quantile reads the q-th quantile from an ascending sample (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// --- table/index cardinality accessors used by the cost model ---

// CountEq returns the number of index entries equal to v in O(log n).
// NULL never matches, as with Lookup.
func (ix *Index) CountEq(v Value) int {
	if v.IsNull() {
		return 0
	}
	return ix.searchAfter(v) - ix.search(v)
}

// CountRange returns the number of non-NULL entries with lo <= key <= hi
// (either bound optional), matching what Range would materialize.
func (ix *Index) CountRange(lo Value, hasLo bool, hi Value, hasHi bool) int {
	start := ix.nullCount()
	if hasLo {
		if s := ix.search(lo); s > start {
			start = s
		}
	}
	end := len(ix.keys)
	if hasHi {
		end = ix.searchAfter(hi)
	}
	if end < start {
		return 0
	}
	return end - start
}

// DistinctKeys estimates the number of distinct non-NULL keys by sampling
// run boundaries; exact for small indexes, a probe-based estimate above the
// sampling threshold so stats stay O(1)-ish per query.
func (ix *Index) DistinctKeys() int {
	n := len(ix.keys)
	if n == 0 {
		return 0
	}
	if n <= 256 {
		d := 0
		for i := 0; i < n; i++ {
			if ix.keys[i].IsNull() {
				continue
			}
			if d == 0 || Compare(ix.keys[i-1], ix.keys[i]) != 0 {
				d++
			}
		}
		return d
	}
	// Probe 64 evenly spaced positions and count boundary hits; scale.
	const probes = 64
	hits := 1
	step := n / probes
	for i := step; i < n; i += step {
		if !ix.keys[i].IsNull() && Compare(ix.keys[i-1], ix.keys[i]) != 0 {
			hits++
		}
	}
	est := hits * step
	if est > n {
		est = n
	}
	return est
}

// searchAfter returns the first position whose key is > v.
func (ix *Index) searchAfter(v Value) int {
	return sort.Search(len(ix.keys), func(i int) bool { return Compare(ix.keys[i], v) > 0 })
}

// nullCount returns how many leading entries have NULL keys (NULL sorts
// before every value, so they form a prefix).
func (ix *Index) nullCount() int {
	return sort.Search(len(ix.keys), func(i int) bool { return !ix.keys[i].IsNull() })
}

// Walk visits every entry in key order (reverse key order when desc),
// including NULL keys, grouping equal keys into one call. The ids of a run
// are always presented in ascending order regardless of direction, which is
// exactly the tie order a stable ORDER BY sort over an ascending-id scan
// produces. fn returning false stops the walk.
func (ix *Index) Walk(desc bool, fn func(key Value, ids []int64) bool) {
	n := len(ix.keys)
	emit := func(start, end int) bool { // [start, end) is one equal-key run
		ids := ix.ids[start:end]
		if len(ids) > 1 {
			asc := append([]int64(nil), ids...)
			sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
			ids = asc
		}
		return fn(ix.keys[start], ids)
	}
	if !desc {
		for start := 0; start < n; {
			end := start + 1
			for end < n && Compare(ix.keys[end-1], ix.keys[end]) == 0 {
				end++
			}
			if !emit(start, end) {
				return
			}
			start = end
		}
		return
	}
	for end := n; end > 0; {
		start := end - 1
		for start > 0 && Compare(ix.keys[start-1], ix.keys[start]) == 0 {
			start--
		}
		if !emit(start, end) {
			return
		}
		end = start
	}
}
