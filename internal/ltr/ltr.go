// Package ltr orchestrates GAR's two-stage learning-to-rank pipeline
// (§III-C): the training-data construction with the clause-wise
// similarity score s_i, the first-stage retrieval (Siamese encoder +
// vector index), and the second-stage re-ranking over the retrieved
// subset. The paper's Fig. 3 training flow maps onto BuildTriplets /
// BuildLists; inference maps onto Pipeline.Rank.
package ltr

import (
	"context"
	"math/rand"
	"sync"

	"repro/internal/embed"
	"repro/internal/norm"
	"repro/internal/parallel"
	"repro/internal/rerank"
	"repro/internal/sqlast"
	"repro/internal/vector"
	"repro/internal/vindex"
)

// clausePenalty is the punishment applied to s_i per differing clause
// (§III-C1 "Training Data"): s_i starts at 1 and is reduced for each
// clause of the candidate that differs from the gold query, clamping at
// 0. Select and compound mismatches hurt most; the remaining clauses
// share a uniform penalty.
var clausePenalty = map[string]float64{
	"select":   0.30,
	"from":     0.25,
	"where":    0.20,
	"group":    0.15,
	"having":   0.15,
	"order":    0.20,
	"compound": 0.30,
}

// SimilarityScore computes s_i between a candidate query and the gold
// query: 1 when they match exactly, decreasing with each differing
// clause, floored at 0.
func SimilarityScore(cand, gold *sqlast.Query) float64 {
	if cand == nil || gold == nil {
		return 0
	}
	s := 1.0
	for clause, equal := range norm.ClauseMatch(cand, gold) {
		if !equal {
			s -= clausePenalty[clause]
		}
		if s <= 0 {
			return 0
		}
	}
	return s
}

// Example is one supervised training example: an NL query and its gold
// SQL query.
type Example struct {
	NL   string
	Gold *sqlast.Query
}

// Candidate is one entry of the generated pool: a SQL query and its
// dialect expression.
type Candidate struct {
	SQL     *sqlast.Query
	Dialect string
}

// PoolIndex maps canonical query forms to pool positions, so gold
// lookups are O(1) instead of a scan over the (large) candidate pool.
type PoolIndex struct {
	pool    []Candidate
	once    sync.Once
	byCanon map[string]int
}

// NewPoolIndex indexes the pool by canonical normalized SQL. The map is
// built by the first Find, so a snapshot that never looks a query up —
// a warm-started tenant that only translates — never pays for it.
func NewPoolIndex(pool []Candidate) *PoolIndex {
	return &PoolIndex{pool: pool}
}

// build fills the canonical-form map; the first position of a form
// wins.
func (pi *PoolIndex) build() {
	pi.byCanon = make(map[string]int, len(pi.pool))
	for i, c := range pi.pool {
		key := norm.Canonical(c.SQL)
		if _, ok := pi.byCanon[key]; !ok {
			pi.byCanon[key] = i
		}
	}
}

// Find returns the pool position whose SQL exactly matches the query
// under SPIDER normalization, or -1.
func (pi *PoolIndex) Find(q *sqlast.Query) int {
	if q == nil {
		return -1
	}
	pi.once.Do(pi.build)
	if i, ok := pi.byCanon[norm.Canonical(q)]; ok {
		return i
	}
	return -1
}

// BuildTriplets constructs the retrieval model's training triples
// {(q_i, d_i, s_i)} in triplet form: for each example, the dialect of
// its gold query is the positive and negPerExample sampled low-scoring
// candidates are the negatives. Examples whose gold query is missing
// from the pool are skipped (they are data-preparation misses).
func BuildTriplets(examples []Example, pool []Candidate, pi *PoolIndex, negPerExample int, seed int64) []embed.Triplet {
	if negPerExample <= 0 {
		negPerExample = 4
	}
	if pi == nil {
		pi = NewPoolIndex(pool)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []embed.Triplet
	for _, ex := range examples {
		posIdx := pi.Find(ex.Gold)
		if posIdx < 0 {
			continue
		}
		pos := pool[posIdx].Dialect
		for n := 0; n < negPerExample; n++ {
			ci := rng.Intn(len(pool))
			if ci == posIdx {
				continue
			}
			// Hard negatives (structurally close but not equal) teach
			// the boundary; the s_i score keeps them as negatives, not
			// positives.
			if SimilarityScore(pool[ci].SQL, ex.Gold) >= 1 {
				continue
			}
			out = append(out, embed.Triplet{Anchor: ex.NL, Positive: pos, Negative: pool[ci].Dialect})
		}
	}
	return out
}

// Pipeline is the assembled two-stage ranking pipeline over a candidate
// pool.
type Pipeline struct {
	Encoder  *embed.Encoder
	Index    vindex.Index
	Reranker *rerank.Model
	Pool     []Candidate
	// PoolIdx accelerates gold lookups; built lazily when nil.
	PoolIdx *PoolIndex
	// K is the retrieval threshold (paper: 100).
	K int
	// SkipRerank disables the second stage (the "w/o Re-ranking Model"
	// ablation): retrieval order is final.
	SkipRerank bool
	// DialVecs, when non-nil, holds the Encoder embedding of each pool
	// candidate's dialect, aligned with Pool. Snapshot builds compute
	// them once (they are the same vectors the index stores), so the
	// re-ranker's similarity feature reuses them instead of re-encoding
	// every retrieved dialect on every request. Must be embeddings under
	// the same encoder the re-ranker's extractor holds.
	DialVecs []vector.Vec
	// Costs, when non-nil, holds each pool candidate's estimated-cost
	// feature (execguide.CostFeature of its SQL, normalized to [0,1)),
	// aligned with Pool. Snapshot builds compute them once; the
	// re-ranker consumes them as a static input feature. Nil scores
	// every candidate with a zero cost feature.
	Costs []float64
	// Table, when non-nil, is the re-rank feature table over Pool's
	// dialects (entry i is Pool[i]). Snapshot builds compute it once,
	// so re-ranking never re-tokenizes a retrieved dialect; nil builds
	// a table over each request's hits instead.
	Table *rerank.Table
	// Workers bounds the fan-out of batched scoring and retrieval
	// (0 = one per CPU, 1 = sequential).
	Workers int
}

// Ranked is one ranked translation candidate.
type Ranked struct {
	ID      int // index into Pool
	Score   float64
	Dialect string
	SQL     *sqlast.Query
}

// Retrieve runs the first stage only: the top-k pool ids by encoder
// similarity.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over RetrieveContext; the fresh root context and the dropped error are the legacy signature
func (p *Pipeline) Retrieve(nl string, k int) []vindex.Hit {
	hits, _ := p.RetrieveContext(context.Background(), nl, k)
	return hits
}

// RetrieveContext is Retrieve with cancellation: the index scan aborts
// when ctx is done.
func (p *Pipeline) RetrieveContext(ctx context.Context, nl string, k int) ([]vindex.Hit, error) {
	return p.RetrieveVecContext(ctx, p.Encoder.Encode(nl), k)
}

// RetrieveVecContext is RetrieveContext with a precomputed query
// embedding (the value p.Encoder.Encode(nl) would return), so callers
// holding a cached embedding skip the encode entirely.
func (p *Pipeline) RetrieveVecContext(ctx context.Context, qvec vector.Vec, k int) ([]vindex.Hit, error) {
	return p.Index.SearchContext(ctx, qvec, p.retrievalK(k))
}

// RetrieveBatchContext answers first-stage retrieval for a batch of
// questions in one call: the encodes fan out across p.Workers and the
// index answers all queries through its batched search. out[i] is
// exactly RetrieveContext(ctx, nls[i], k).
func (p *Pipeline) RetrieveBatchContext(ctx context.Context, nls []string, k int) ([][]vindex.Hit, error) {
	vecs := make([]vector.Vec, len(nls))
	err := parallel.ForEach(ctx, len(nls), p.Workers, func(i int) error {
		vecs[i] = p.Encoder.Encode(nls[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.Index.SearchBatch(ctx, vecs, p.retrievalK(k))
}

// retrievalK resolves the effective top-k: the argument, else the
// pipeline default, else the paper's 100.
func (p *Pipeline) retrievalK(k int) int {
	if k <= 0 {
		k = p.K
	}
	if k <= 0 {
		k = 100
	}
	return k
}

// FromHits converts first-stage hits to Ranked candidates in retrieval
// order, carrying the retrieval score. This is both the "w/o
// Re-ranking" ablation path and the degraded fallback when the second
// stage fails.
func (p *Pipeline) FromHits(hits []vindex.Hit) []Ranked {
	out := make([]Ranked, 0, len(hits))
	for _, h := range hits {
		c := p.Pool[h.ID]
		out = append(out, Ranked{ID: h.ID, Score: float64(h.Score), Dialect: c.Dialect, SQL: c.SQL})
	}
	return out
}

// RerankContext runs the second stage only: the re-ranker reorders the
// retrieved hits. The context is observed between forward passes.
func (p *Pipeline) RerankContext(ctx context.Context, nl string, hits []vindex.Hit) ([]Ranked, error) {
	return p.RerankVecContext(ctx, nl, nil, hits)
}

// RerankVecContext is RerankContext with an optional precomputed query
// embedding (under p.Encoder). Every candidate is scored exactly once:
// the NL-side features are prepared once per question, the dialect
// side comes from Table and the dialect embeddings from DialVecs when
// the snapshot precomputed them, and the forward passes fan out across
// p.Workers. The ranked output is bit-identical to sequential per-pair
// scoring.
func (p *Pipeline) RerankVecContext(ctx context.Context, nl string, qvec vector.Vec, hits []vindex.Hit) ([]Ranked, error) {
	if p.SkipRerank || p.Reranker == nil {
		return p.FromHits(hits), nil
	}
	// The cached query embedding substitutes for the extractor's own
	// encode only when both stages share one encoder (they do in every
	// snapshot core builds; the guard keeps hand-assembled pipelines
	// honest).
	var prep *rerank.Prep
	if qvec != nil && p.Reranker.X.Encoder == p.Encoder {
		prep = p.Reranker.X.PrepareVec(nl, qvec)
	} else {
		prep = p.Reranker.X.Prepare(nl)
	}
	var order []int
	var scores []float64
	var err error
	if p.Table != nil {
		ids := make([]int, len(hits))
		for i, h := range hits {
			ids[i] = h.ID
		}
		order, scores, err = p.Reranker.RankTableContext(ctx, prep, p.Table, ids, p.DialVecs, p.Costs, p.Workers)
	} else {
		order, scores, err = p.rerankHits(ctx, prep, hits)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, 0, len(hits))
	for _, idx := range order {
		h := hits[idx]
		c := p.Pool[h.ID]
		out = append(out, Ranked{
			ID:      h.ID,
			Score:   scores[idx],
			Dialect: c.Dialect,
			SQL:     c.SQL,
		})
	}
	return out, nil
}

// rerankHits scores the hits of a pipeline without a feature table,
// gathering their dialects, embeddings and costs per request.
func (p *Pipeline) rerankHits(ctx context.Context, prep *rerank.Prep, hits []vindex.Hit) ([]int, []float64, error) {
	dialects := make([]string, len(hits))
	var dialVecs []vector.Vec
	if p.DialVecs != nil {
		dialVecs = make([]vector.Vec, len(hits))
	}
	var costs []float64
	if p.Costs != nil {
		costs = make([]float64, len(hits))
	}
	for i, h := range hits {
		dialects[i] = p.Pool[h.ID].Dialect
		if dialVecs != nil {
			dialVecs[i] = p.DialVecs[h.ID]
		}
		if costs != nil {
			costs[i] = p.Costs[h.ID]
		}
	}
	return p.Reranker.RankScoresPrepContext(ctx, prep, dialects, dialVecs, costs, p.Workers)
}

// Rank runs the full two-stage pipeline and returns the candidates in
// final ranked order.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over RankContext; the fresh root context and the dropped error are the legacy signature
func (p *Pipeline) Rank(nl string) []Ranked {
	out, _ := p.RankContext(context.Background(), nl)
	return out
}

// RankContext is Rank with cancellation threaded through both stages.
func (p *Pipeline) RankContext(ctx context.Context, nl string) ([]Ranked, error) {
	hits, err := p.RetrieveContext(ctx, nl, p.K)
	if err != nil {
		return nil, err
	}
	return p.RerankContext(ctx, nl, hits)
}

// BuildLists constructs the re-ranking model's listwise training groups:
// for each example, the top-k retrieval results form the candidate list
// and the binary labels mark the gold dialect (§III-C2). Examples whose
// gold is not retrieved in the top-k contribute their list with the gold
// appended, so the model still sees a positive (standard practice for
// training with imperfect first stages). Retrieval for all examples
// runs as one batched search instead of a per-example loop.
//
//garlint:allow ctxpass -- training-time helper with no caller context
func (p *Pipeline) BuildLists(examples []Example, k int) []rerank.TrainingList {
	if p.PoolIdx == nil {
		p.PoolIdx = NewPoolIndex(p.Pool)
	}
	golds := make([]int, 0, len(examples))
	nls := make([]string, 0, len(examples))
	for _, ex := range examples {
		goldIdx := p.PoolIdx.Find(ex.Gold)
		if goldIdx < 0 {
			continue
		}
		golds = append(golds, goldIdx)
		nls = append(nls, ex.NL)
	}
	batch, err := p.RetrieveBatchContext(context.Background(), nls, k)
	if err != nil {
		return nil
	}
	lists := make([]rerank.TrainingList, 0, len(nls))
	for j, hits := range batch {
		goldIdx := golds[j]
		list := rerank.TrainingList{NL: nls[j]}
		sawGold := false
		for _, h := range hits {
			list.Dialects = append(list.Dialects, p.Pool[h.ID].Dialect)
			label := 0.0
			if h.ID == goldIdx {
				label = 1
				sawGold = true
			}
			list.Labels = append(list.Labels, label)
			if p.Costs != nil {
				list.Costs = append(list.Costs, p.Costs[h.ID])
			}
		}
		if !sawGold {
			list.Dialects = append(list.Dialects, p.Pool[goldIdx].Dialect)
			list.Labels = append(list.Labels, 1)
			if p.Costs != nil {
				list.Costs = append(list.Costs, p.Costs[goldIdx])
			}
		}
		lists = append(lists, list)
	}
	return lists
}
