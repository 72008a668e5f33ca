// Package vindex provides top-k vector similarity search over unit-norm
// embeddings: an exact flat index whose scan shards across workers. It
// plays the role Faiss plays in the paper's inference pipeline
// (§V-A2): retrieving the closest dialect-expression embeddings for an
// NL query embedding.
//
// Searches accept a context.Context; cancellation and deadlines are
// checked inside the scoring loops, so a slow scan over a very large
// pool can be abandoned mid-flight. Indexes are safe for concurrent
// searches once populated.
package vindex

import (
	"context"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/vector"
)

// ctxCheckStride is how many scored vectors pass between context
// checks in the hot loops; a power of two keeps the check a mask.
const ctxCheckStride = 256

// Hit is one search result.
type Hit struct {
	ID    int
	Score float32 // inner product; cosine for unit vectors
}

// Index is a top-k inner-product search structure.
type Index interface {
	// Add inserts a vector under the caller-chosen id. Add must not be
	// called concurrently with Search.
	Add(id int, v vector.Vec)
	// Search returns the k highest-scoring ids in descending score
	// order. Fewer than k hits are returned when the index is smaller.
	Search(q vector.Vec, k int) []Hit
	// SearchContext is Search with cancellation: the scan aborts (and
	// returns the context error) when ctx is done.
	SearchContext(ctx context.Context, q vector.Vec, k int) ([]Hit, error)
	// SearchBatch answers one top-k query per embedding in qs with a
	// single call: the per-query scans fan out across the available
	// CPUs, and out[i] is exactly what SearchContext(ctx, qs[i], k)
	// would return. Batching replaces the per-query loop the training
	// and bulk-evaluation paths would otherwise run sequentially.
	SearchBatch(ctx context.Context, qs []vector.Vec, k int) ([][]Hit, error)
	// Len returns the number of stored vectors.
	Len() int
}

// Flat is the exact brute-force index. A search splits the stored
// vectors into shards of at least minShard rows, up to one per worker,
// scans each with its own bounded heap and merges the shards' hits
// under `better`. Because `better` is a strict total order, the merged
// hits are exactly a sequential scan's at every shard count.
type Flat struct {
	ids  []int
	vecs []vector.Vec
	// workers caps the shards of one search: 0 means one per CPU, 1
	// scans sequentially.
	workers int
}

// minShard is the fewest rows a search hands to one shard, so pools
// under twice this size scan sequentially. On a 2-vCPU VM at dimension
// 64, two shards broke even with one sequential scan at about 3,000
// rows and saved ~5 % at 4,096 and ~17 % at 5,400; on smaller pools
// the hand-off to other goroutines costs what the split saves.
const minShard = 2048

// NewFlat returns an empty exact index whose searches shard across one
// worker per CPU.
func NewFlat() *Flat { return &Flat{} }

// NewFlatRows returns an exact index over rows, row i stored under id
// i. It keeps the rows without copying them, so rows sharing one
// backing array (vector.Rows) are scanned in memory order. A search
// shards across at most workers goroutines: 0 means one per CPU, 1
// scans sequentially.
func NewFlatRows(rows []vector.Vec, workers int) *Flat {
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	return &Flat{ids: ids, vecs: rows, workers: workers}
}

// Add implements Index.
func (f *Flat) Add(id int, v vector.Vec) {
	f.ids = append(f.ids, id)
	f.vecs = append(f.vecs, v)
}

// Len implements Index.
func (f *Flat) Len() int { return len(f.ids) }

// Search implements Index.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over SearchContext; the fresh root context and the dropped error are the legacy signature
func (f *Flat) Search(q vector.Vec, k int) []Hit {
	hits, _ := f.SearchContext(context.Background(), q, k)
	return hits
}

// SearchContext implements Index.
func (f *Flat) SearchContext(ctx context.Context, q vector.Vec, k int) ([]Hit, error) {
	n := len(f.ids)
	if k <= 0 || k > n {
		k = n
	}
	shards := min(parallel.Workers(f.workers), n/minShard)
	if shards <= 1 {
		return topK(ctx, q, f.ids, f.vecs, k)
	}
	size := (n + shards - 1) / shards
	parts := make([][]Hit, shards)
	err := parallel.ForEach(ctx, shards, shards, func(s int) error {
		lo, hi := s*size, min((s+1)*size, n)
		var err error
		parts[s], err = topK(ctx, q, f.ids[lo:hi], f.vecs[lo:hi], k)
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeHits(parts, k), nil
}

// SearchBatch implements Index. The queries fan out across CPUs, and
// each scans in one shard: the batch already keeps the CPUs busy.
func (f *Flat) SearchBatch(ctx context.Context, qs []vector.Vec, k int) ([][]Hit, error) {
	out := make([][]Hit, len(qs))
	err := parallel.ForEach(ctx, len(qs), 0, func(i int) error {
		var err error
		out[i], err = topK(ctx, qs[i], f.ids, f.vecs, k)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mergeHits merges shards' hit lists, each sorted under `better`, into
// the k best overall, in `better` order.
func mergeHits(parts [][]Hit, k int) []Hit {
	out := make([]Hit, 0, k)
	for len(out) < k {
		best := -1
		for s, p := range parts {
			if len(p) > 0 && (best < 0 || better(p[0], parts[best][0])) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
	return out
}

// better is the ranking order of hits: score descending, ID ascending
// on ties. It is a strict total order, which is what makes the bounded
// heap selection below return exactly the prefix a full sort would,
// and a merge of shards exactly a single scan's hits.
func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// cmpHits orders hits under `better` for slices.SortFunc.
func cmpHits(a, b Hit) int {
	if better(a, b) {
		return -1
	}
	if better(b, a) {
		return 1
	}
	return 0
}

// topK scores every vector against q and returns the min(k, n) best
// hits in `better` order; k <= 0 means every hit. It keeps a bounded
// min-heap (worst hit at the root) rather than sorting the whole score
// slice: O(n log k) with a k-sized footprint rather than O(n log n)
// over the full pool, which is the dominant cost of first-stage
// retrieval over large candidate pools. Rows are scored four at a time
// (vector.Dot4, bit-identical to Dot), and a score below the heap's
// worst is dropped before a Hit is built.
func topK(ctx context.Context, q vector.Vec, ids []int, vecs []vector.Vec, k int) ([]Hit, error) {
	if k <= 0 || k > len(ids) {
		k = len(ids)
	}
	h := bounded{heap: make([]Hit, 0, k)}
	// worst is the score a hit must reach to enter the heap: -Inf until
	// it is full, then its root's. "Not below" keeps a NaN score, which
	// the heap then orders as it always has.
	worst := float32(math.Inf(-1))
	var s [4]float32
	i := 0
	for ; i+4 <= len(vecs); i += 4 {
		if i&(ctxCheckStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		s[0], s[1], s[2], s[3] = vector.Dot4(q, vecs[i], vecs[i+1], vecs[i+2], vecs[i+3])
		for j, score := range s {
			if !(score < worst) {
				worst = h.push(Hit{ID: ids[i+j], Score: score})
			}
		}
	}
	for ; i < len(vecs); i++ {
		if i&(ctxCheckStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if score := vector.Dot(q, vecs[i]); !(score < worst) {
			worst = h.push(Hit{ID: ids[i], Score: score})
		}
	}
	slices.SortFunc(h.heap, cmpHits)
	return h.heap, nil
}

// bounded keeps the cap(heap) best hits pushed, as a min-heap under
// `better`: heap[0] is the worst of them.
type bounded struct {
	heap []Hit
}

// push adds hit while the heap has room, and otherwise replaces the
// worst hit when hit is better. It returns the score a later hit must
// reach to enter: -Inf while the heap has room, else the worst score.
func (b *bounded) push(hit Hit) float32 {
	if len(b.heap) < cap(b.heap) {
		b.heap = append(b.heap, hit)
		siftUp(b.heap, len(b.heap)-1)
		if len(b.heap) < cap(b.heap) {
			return float32(math.Inf(-1))
		}
		return b.heap[0].Score
	}
	if better(hit, b.heap[0]) {
		b.heap[0] = hit
		siftDown(b.heap, 0)
	}
	return b.heap[0].Score
}

// siftUp restores the min-heap property (worst hit at the root, under
// `better`) after appending at position i.
func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !better(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []Hit, i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && better(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && better(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
