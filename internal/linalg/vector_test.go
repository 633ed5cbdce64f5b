package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVectorBasics(t *testing.T) {
	v := NewVector(4)
	if len(v) != 4 {
		t.Fatalf("NewVector(4) has length %d", len(v))
	}
	v.Fill(2)
	if got := v.Sum(); got != 8 {
		t.Errorf("Sum = %v, want 8", got)
	}
	if got := v.Norm1(); got != 8 {
		t.Errorf("Norm1 = %v, want 8", got)
	}
	if got := v.Norm2(); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Norm2 = %v, want 4", got)
	}
	v.Zero()
	if got := v.Sum(); got != 0 {
		t.Errorf("after Zero, Sum = %v", got)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot on mismatched lengths did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestScaleAndNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Scale(2)
	if v[0] != 6 || v[1] != 8 {
		t.Fatalf("Scale: got %v", v)
	}
	v.Normalize2()
	if !almostEqual(v.Norm2(), 1, 1e-12) {
		t.Errorf("Normalize2: norm = %v", v.Norm2())
	}
	u := Vector{1, 3}
	u.Normalize1()
	if !almostEqual(u.Norm1(), 1, 1e-12) {
		t.Errorf("Normalize1: norm = %v", u.Norm1())
	}
}

func TestNormalizeZeroVectorIsNoop(t *testing.T) {
	v := Vector{0, 0}
	v.Normalize1()
	v.Normalize2()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("normalizing zero vector changed it: %v", v)
	}
}

func TestAXPY(t *testing.T) {
	v := Vector{1, 1}
	v.AXPY(2, Vector{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Errorf("AXPY: got %v", v)
	}
}

func TestSubAndDiffs(t *testing.T) {
	v := Vector{5, 7}
	w := Vector{2, 3}
	dst := NewVector(2)
	Sub(dst, v, w)
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("Sub: got %v", dst)
	}
	if got := Diff1(v, w); got != 7 {
		t.Errorf("Diff1 = %v, want 7", got)
	}
	if got := DiffInf(v, w); got != 4 {
		t.Errorf("DiffInf = %v, want 4", got)
	}
}

func TestUniform(t *testing.T) {
	v := Uniform(5)
	if !almostEqual(v.Sum(), 1, 1e-12) {
		t.Errorf("Uniform(5) sums to %v", v.Sum())
	}
	if len(Uniform(0)) != 0 {
		t.Error("Uniform(0) should be empty")
	}
}

// Property: the Cauchy–Schwarz inequality |v·w| <= |v||w| holds for random
// vectors.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vector(a[:n]), Vector(b[:n])
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		for _, x := range w {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm2() * w.Norm2()
		return lhs <= rhs*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for the L1 norm.
func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		v, w := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			v[i] = rng.NormFloat64()
			w[i] = rng.NormFloat64()
		}
		sum := v.Clone()
		sum.AXPY(1, w)
		if sum.Norm1() > v.Norm1()+w.Norm1()+1e-9 {
			t.Fatalf("triangle inequality violated at trial %d", trial)
		}
	}
}
