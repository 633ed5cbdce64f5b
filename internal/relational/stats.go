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
	return ix.searchAfter(v) - ix.pos(ix.search(v))
}

// CountRange returns the number of non-NULL entries with lo <= key <= hi
// (either bound optional), matching what Range would materialize.
func (ix *Index) CountRange(lo Value, hasLo bool, hi Value, hasHi bool) int {
	start := ix.nullCount()
	if hasLo {
		start = max(start, ix.pos(ix.search(lo)))
	}
	end := ix.n
	if hasHi {
		end = ix.searchAfter(hi)
	}
	return max(end-start, 0)
}

// DistinctKeys estimates the number of distinct non-NULL keys by sampling
// run boundaries; exact for small indexes, a probe-based estimate above the
// sampling threshold so stats stay O(1)-ish per query.
func (ix *Index) DistinctKeys() int {
	n := ix.n
	if n == 0 {
		return 0
	}
	if n <= 256 {
		d := 0
		var prev *entry
		ix.scan(0, 0, func(e *entry) bool {
			if !e.key.IsNull() && (prev == nil || Compare(prev.key, e.key) != 0) {
				d++
			}
			prev = e
			return true
		})
		return d
	}
	// Probe 64 evenly spaced positions and count boundary hits; scale.
	const probes = 64
	hits := 1
	step := n / probes
	for i := step; i < n; i += step {
		if k := ix.at(i).key; !k.IsNull() && Compare(ix.at(i-1).key, k) != 0 {
			hits++
		}
	}
	return min(hits*step, n)
}

// searchAfter returns the global position of the first entry whose key
// is > v.
func (ix *Index) searchAfter(v Value) int {
	return ix.pos(ix.seek(func(e *entry) bool { return Compare(e.key, v) > 0 }))
}

// nullCount returns how many leading entries have NULL keys (NULL sorts
// before every value, so they form a prefix).
func (ix *Index) nullCount() int {
	return ix.pos(ix.seek(func(e *entry) bool { return !e.key.IsNull() }))
}
