// Package vector provides dense float32 vector operations, used by the
// retrieval encoder and the vector index.
package vector

import "math"

// Vec is a dense vector.
type Vec []float32

// New returns a zero vector of the given dimension.
func New(dim int) Vec { return make(Vec, dim) }

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b Vec) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dot4 returns the inner products of q with each of a, b, c and d.
// Each sum runs in index order, exactly as Dot's does, so every result
// is bit-identical to Dot(q, row); the four independent running sums
// overlap the float-add latency that one sum serializes. Every row
// must be at least as long as q.
func Dot4(q, a, b, c, d Vec) (sa, sb, sc, sd float32) {
	a, b, c, d = a[:len(q)], b[:len(q)], c[:len(q)], d[:len(q)]
	for i, x := range q {
		sa += x * a[i]
		sb += x * b[i]
		sc += x * c[i]
		sd += x * d[i]
	}
	return sa, sb, sc, sd
}

// Norm returns the Euclidean norm.
func Norm(a Vec) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a to unit norm in place and returns it. The zero
// vector stays zero.
func Normalize(a Vec) Vec {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Cosine returns the cosine similarity; zero when either vector is zero.
func Cosine(a, b Vec) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Axpy computes a += alpha*x in place.
func Axpy(a Vec, alpha float32, x Vec) {
	for i := range a {
		a[i] += alpha * x[i]
	}
}

// Scale multiplies a by alpha in place.
func Scale(a Vec, alpha float32) {
	for i := range a {
		a[i] *= alpha
	}
}

// Clone returns a copy of a.
func Clone(a Vec) Vec {
	out := make(Vec, len(a))
	copy(out, a)
	return out
}
