package vindex_test

import (
	"math/rand"
	"testing"

	"repro/internal/vector"
	"repro/internal/vindex"
)

func fill(idx vindex.Index, n, dim int, seed int64) vector.Vec {
	rng := rand.New(rand.NewSource(seed))
	var q vector.Vec
	for i := 0; i < n; i++ {
		v := make(vector.Vec, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		vector.Normalize(v)
		idx.Add(i, v)
		q = v
	}
	return q
}

// BenchmarkFlatSearch measures exact top-100 search over a pool the size
// of a prepared GAR candidate set.
func BenchmarkFlatSearch(b *testing.B) {
	idx := vindex.NewFlat()
	q := fill(idx, 4000, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Search(q, 100)
	}
}
