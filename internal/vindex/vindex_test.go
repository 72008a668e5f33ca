package vindex_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/vector"
	"repro/internal/vindex"
)

func randomUnit(rng *rand.Rand, dim int) vector.Vec {
	v := make(vector.Vec, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return vector.Normalize(v)
}

func TestFlatExactTopK(t *testing.T) {
	idx := vindex.NewFlat()
	idx.Add(0, vector.Vec{1, 0})
	idx.Add(1, vector.Vec{0, 1})
	idx.Add(2, vector.Normalize(vector.Vec{1, 1}))
	hits := idx.Search(vector.Vec{1, 0}, 2)
	if len(hits) != 2 || hits[0].ID != 0 || hits[1].ID != 2 {
		t.Fatalf("unexpected hits: %+v", hits)
	}
	if hits[0].Score < hits[1].Score {
		t.Error("hits not sorted by score")
	}
}

func TestFlatKLargerThanIndex(t *testing.T) {
	idx := vindex.NewFlat()
	idx.Add(7, vector.Vec{1, 0})
	hits := idx.Search(vector.Vec{1, 0}, 10)
	if len(hits) != 1 || hits[0].ID != 7 {
		t.Fatalf("unexpected hits: %+v", hits)
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	if hits := vindex.NewFlat().Search(vector.Vec{1}, 3); len(hits) != 0 {
		t.Errorf("empty flat index returned hits: %+v", hits)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	idx := vindex.NewFlat()
	idx.Add(5, vector.Vec{1, 0})
	idx.Add(3, vector.Vec{1, 0})
	hits := idx.Search(vector.Vec{1, 0}, 2)
	if hits[0].ID != 3 || hits[1].ID != 5 {
		t.Errorf("tie break should order by id: %+v", hits)
	}
}

// TestHeapSelectionMatchesFullSort pins the bounded-heap top-k to the
// full-sort semantics across every k, including heavy score ties.
func TestHeapSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	idx := vindex.NewFlat()
	n := 300
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			// Duplicate vectors force exact score ties.
			idx.Add(i, vector.Vec{1, 0, 0})
		} else {
			idx.Add(i, randomUnit(rng, 3))
		}
	}
	q := randomUnit(rng, 3)
	// k >= n takes the full-sort path; smaller k takes the heap path.
	full := idx.Search(q, n)
	for _, k := range []int{1, 2, 7, 50, 299} {
		got := idx.Search(q, k)
		if len(got) != k {
			t.Fatalf("k=%d: got %d hits", k, len(got))
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("k=%d: rank %d differs: heap %+v vs sort %+v", k, i, got[i], full[i])
			}
		}
	}
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := vindex.NewFlat()
	for i := 0; i < 250; i++ {
		idx.Add(i, randomUnit(rng, 12))
	}
	qs := make([]vector.Vec, 40)
	for i := range qs {
		qs[i] = randomUnit(rng, 12)
	}
	batch, err := idx.SearchBatch(context.Background(), qs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(qs) {
		t.Fatalf("batch size %d, want %d", len(batch), len(qs))
	}
	for qi, q := range qs {
		want, err := idx.SearchContext(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[qi]) != len(want) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(batch[qi]), len(want))
		}
		for i := range want {
			if batch[qi][i] != want[i] {
				t.Fatalf("query %d rank %d: batch %+v vs sequential %+v", qi, i, batch[qi][i], want[i])
			}
		}
	}
}

func TestSearchBatchCancellation(t *testing.T) {
	idx := vindex.NewFlat()
	for i := 0; i < 100; i++ {
		idx.Add(i, vector.Vec{1, 0})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.SearchBatch(ctx, []vector.Vec{{1, 0}, {0, 1}}, 5); err == nil {
		t.Fatal("cancelled batch search must fail")
	}
}

// sortedHits is the oracle of every search: row i, stored under
// ids[i], scored with vector.Dot, fully sorted by score descending,
// id ascending.
func sortedHits(q vector.Vec, rows []vector.Vec, ids []int) []vindex.Hit {
	out := make([]vindex.Hit, len(rows))
	for i, r := range rows {
		out[i] = vindex.Hit{ID: ids[i], Score: vector.Dot(q, r)}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// shardRows builds n unit rows in one block where the query's own
// vector sits on both sides of every shard boundary a search of up to
// 8 shards can draw, so the best hits tie across shards and only ids
// order them; every 7th row repeats one of three vectors besides.
func shardRows(rng *rand.Rand, n, dim int, q vector.Vec) []vector.Vec {
	rows := vector.Rows(n, dim)
	dups := []vector.Vec{randomUnit(rng, dim), randomUnit(rng, dim), randomUnit(rng, dim)}
	for i := range rows {
		if i%7 == 0 {
			copy(rows[i], dups[i%3])
		} else {
			copy(rows[i], randomUnit(rng, dim))
		}
	}
	for shards := 2; shards <= 8; shards++ {
		size := (n + shards - 1) / shards
		for b := size; b < n; b += size {
			copy(rows[b-1], q)
			copy(rows[b], q)
		}
	}
	return rows
}

// TestShardedScanMatchesFullSort pins the sharded scan to a sequential
// one and to a full sort, at worker counts that shard differently,
// pool sizes that are multiples of neither 4 nor the shard count, and
// every k from 1 past the pool size. Ids run with the rows and against
// them, so ties across shards must be broken by id, not by shard.
func TestShardedScanMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const dim = 8
	for _, n := range []int{2*vindex.MinShard + 3, 3*vindex.MinShard + 1, 8*vindex.MinShard + 5} {
		q := randomUnit(rng, dim)
		rows := shardRows(rng, n, dim, q)
		ids, reversed := make([]int, n), make([]int, n)
		for i := range ids {
			ids[i], reversed[i] = i, n-1-i
		}
		for _, workers := range []int{1, 2, 3, 8} {
			idx := vindex.NewFlatRows(rows, workers)
			rev := vindex.NewFlatRows(nil, workers)
			for i, r := range rows {
				rev.Add(reversed[i], r)
			}
			checkSharded(t, fmt.Sprintf("n=%d workers=%d", n, workers), idx, q, rows, ids)
			checkSharded(t, fmt.Sprintf("n=%d workers=%d reversed ids", n, workers), rev, q, rows, reversed)
		}
	}
}

// checkSharded compares idx's searches of q, at every k, with the full
// sort and with a sequential scan of the same rows and ids, and its
// batch search with the full sort.
func checkSharded(t *testing.T, name string, idx *vindex.Flat, q vector.Vec, rows []vector.Vec, ids []int) {
	t.Helper()
	n := len(rows)
	full := sortedHits(q, rows, ids)
	seq := vindex.NewFlatRows(nil, 1)
	for i, r := range rows {
		seq.Add(ids[i], r)
	}
	for _, k := range []int{1, 7, 100, n - 1, n, n + 5} {
		got, err := idx.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := full[:min(k, n)]
		if len(got) != len(want) {
			t.Fatalf("%s k=%d: %d hits, want %d", name, k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s k=%d rank %d: %+v, full sort %+v", name, k, i, got[i], want[i])
			}
		}
		again := seq.Search(q, k)
		for i := range again {
			if again[i] != got[i] {
				t.Fatalf("%s k=%d rank %d: sharded %+v, sequential %+v", name, k, i, got[i], again[i])
			}
		}
	}
	batch, err := idx.SearchBatch(context.Background(), []vector.Vec{q, rows[5]}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range batch[0] {
		if h != full[i] {
			t.Fatalf("%s: batch rank %d %+v, full sort %+v", name, i, h, full[i])
		}
	}
}

// countdownCtx reports cancellation from its after-th Err call on, so
// a scan is cancelled part way through.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestShardedScanCancellation cancels scans part way through, at every
// worker count: the search must fail with the context's error and
// return no hits.
func TestShardedScanCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 4*vindex.MinShard + 9
	q := randomUnit(rng, 8)
	rows := shardRows(rng, n, 8, q)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, after := range []int64{0, 1, 3, 9} {
			ctx := &countdownCtx{Context: context.Background(), after: after}
			hits, err := vindex.NewFlatRows(rows, workers).SearchContext(ctx, q, 100)
			if !errors.Is(err, context.Canceled) || hits != nil {
				t.Fatalf("workers=%d cancelled after %d checks: %d hits, err %v", workers, after, len(hits), err)
			}
		}
	}
}
