// Package linalg provides the sparse linear-algebra substrate used by the
// PageRank solvers: dense vectors, CSR (compressed sparse row) matrices and
// the handful of BLAS-1/2 style kernels the iterative methods in
// internal/pagerank are built from.
//
// Everything here is deliberately allocation-conscious: the solvers run the
// same kernels thousands of times per experiment, so the API favours
// caller-supplied destination slices over returning fresh ones.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every component of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every component of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Norm1 returns the L1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: dot of vectors with lengths %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Scale multiplies every component of v by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Normalize1 scales v so its L1 norm is 1. A zero vector is left unchanged.
func (v Vector) Normalize1() {
	n := v.Norm1()
	if n == 0 {
		return
	}
	v.Scale(1 / n)
}

// Normalize2 scales v so its Euclidean norm is 1. A zero vector is left
// unchanged.
func (v Vector) Normalize2() {
	n := v.Norm2()
	if n == 0 {
		return
	}
	v.Scale(1 / n)
}

// AXPY computes v += a*w in place. It panics if lengths differ.
func (v Vector) AXPY(a float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: axpy of vectors with lengths %d and %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Sub computes dst = v - w. It panics if lengths differ.
func Sub(dst, v, w Vector) {
	if len(v) != len(w) || len(dst) != len(v) {
		panic("linalg: sub length mismatch")
	}
	for i := range v {
		dst[i] = v[i] - w[i]
	}
}

// Diff1 returns the L1 norm of v - w without allocating.
func Diff1(v, w Vector) float64 {
	if len(v) != len(w) {
		panic("linalg: diff1 length mismatch")
	}
	var s float64
	for i := range v {
		s += math.Abs(v[i] - w[i])
	}
	return s
}

// DiffInf returns the max-norm of v - w without allocating.
func DiffInf(v, w Vector) float64 {
	if len(v) != len(w) {
		panic("linalg: diffInf length mismatch")
	}
	var m float64
	for i := range v {
		if d := math.Abs(v[i] - w[i]); d > m {
			m = d
		}
	}
	return m
}

// Uniform returns the uniform probability vector of length n (every entry
// 1/n). For n == 0 it returns an empty vector.
func Uniform(n int) Vector {
	v := NewVector(n)
	if n == 0 {
		return v
	}
	v.Fill(1 / float64(n))
	return v
}
