package linalg

import (
	"fmt"
	"sort"
)

// Entry is a single (row, col, value) coordinate used when assembling a
// sparse matrix.
type Entry struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed-sparse-row matrix. Rows hold n+1 offsets into Cols and
// Vals; the non-zeros of row i are Cols[Rows[i]:Rows[i+1]] (column indices,
// strictly increasing within a row) and the matching Vals slice.
type CSR struct {
	N    int // number of rows
	M    int // number of columns
	Rows []int
	Cols []int
	Vals []float64
}

// NewCSR assembles a CSR matrix of shape n×m from coordinate entries.
// Duplicate (row, col) coordinates are summed. Entries outside the shape
// cause a panic: they indicate a construction bug upstream.
func NewCSR(n, m int, entries []Entry) *CSR {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= m {
			panic(fmt.Sprintf("linalg: entry (%d,%d) outside %dx%d matrix", e.Row, e.Col, n, m))
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})

	c := &CSR{N: n, M: m, Rows: make([]int, n+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		c.Cols = append(c.Cols, sorted[i].Col)
		c.Vals = append(c.Vals, v)
		c.Rows[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < n; i++ {
		c.Rows[i+1] += c.Rows[i]
	}
	return c
}

// At returns the value at (i, j), 0 when no entry is stored.
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.N || j < 0 || j >= c.M {
		panic(fmt.Sprintf("linalg: At(%d,%d) outside %dx%d matrix", i, j, c.N, c.M))
	}
	lo, hi := c.Rows[i], c.Rows[i+1]
	k := lo + sort.SearchInts(c.Cols[lo:hi], j)
	if k < hi && c.Cols[k] == j {
		return c.Vals[k]
	}
	return 0
}

// MulVec computes dst = c · x. It panics on shape mismatch.
func (c *CSR) MulVec(dst, x Vector) {
	if len(x) != c.M || len(dst) != c.N {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: %dx%d by %d into %d", c.N, c.M, len(x), len(dst)))
	}
	for i := 0; i < c.N; i++ {
		var s float64
		for k := c.Rows[i]; k < c.Rows[i+1]; k++ {
			s += c.Vals[k] * x[c.Cols[k]]
		}
		dst[i] = s
	}
}

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (c *CSR) Row(i int) ([]int, []float64) {
	return c.Cols[c.Rows[i]:c.Rows[i+1]], c.Vals[c.Rows[i]:c.Rows[i+1]]
}
