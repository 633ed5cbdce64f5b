package linalg

import (
	"math"
	"testing"
)

func smallMatrix() *CSR {
	// [1 0 2]
	// [0 3 0]
	return NewCSR(2, 3, []Entry{
		{Row: 0, Col: 0, Val: 1},
		{Row: 0, Col: 2, Val: 2},
		{Row: 1, Col: 1, Val: 3},
	})
}

func TestCSRAt(t *testing.T) {
	c := smallMatrix()
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 1}, {0, 1, 0}, {0, 2, 2},
		{1, 0, 0}, {1, 1, 3}, {1, 2, 0},
	}
	for _, tc := range cases {
		if got := c.At(tc.i, tc.j); got != tc.want {
			t.Errorf("At(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
	if len(c.Vals) != 3 {
		t.Errorf("NNZ = %d, want 3", len(c.Vals))
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	c := NewCSR(1, 1, []Entry{{0, 0, 1}, {0, 0, 2.5}})
	if got := c.At(0, 0); got != 3.5 {
		t.Errorf("duplicate entries: At(0,0) = %v, want 3.5", got)
	}
	if len(c.Vals) != 1 {
		t.Errorf("duplicate entries: NNZ = %d, want 1", len(c.Vals))
	}
}

func TestCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCSR with out-of-range entry did not panic")
		}
	}()
	NewCSR(1, 1, []Entry{{5, 0, 1}})
}

func TestMulVec(t *testing.T) {
	c := smallMatrix()
	dst := NewVector(2)
	c.MulVec(dst, Vector{1, 1, 1})
	if dst[0] != 3 || dst[1] != 3 {
		t.Errorf("MulVec: got %v, want [3 3]", dst)
	}
}

func TestRowView(t *testing.T) {
	c := smallMatrix()
	cols, vals := c.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[1] != 2 {
		t.Errorf("Row(0) = %v %v", cols, vals)
	}
	cols, _ = c.Row(1)
	if len(cols) != 1 || cols[0] != 1 {
		t.Errorf("Row(1) cols = %v", cols)
	}
}

func TestDenseSolveUpperTriangular(t *testing.T) {
	d := NewDense(3, 3)
	// R = [2 1 0; 0 3 1; 0 0 4], b = [5 10 8] -> x = [1.875, 2.666..., 2]... compute:
	// x2 = 8/4 = 2; x1 = (10-1*2)/3 = 8/3; x0 = (5 - 1*8/3)/2 = 7/6
	d.Set(0, 0, 2)
	d.Set(0, 1, 1)
	d.Set(1, 1, 3)
	d.Set(1, 2, 1)
	d.Set(2, 2, 4)
	x, ok := d.SolveUpperTriangular(3, Vector{5, 10, 8})
	if !ok {
		t.Fatal("solve reported singular")
	}
	want := Vector{7.0 / 6, 8.0 / 3, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestDenseSolveSingular(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	// d[1][1] stays zero -> singular
	if _, ok := d.SolveUpperTriangular(2, Vector{1, 1}); ok {
		t.Error("singular system reported solvable")
	}
}

func TestDenseIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range dense access did not panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}
