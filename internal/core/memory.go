package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/embed"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/parallel"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/vector"
)

// This file is the resource-governance layer of pool construction and
// serving: every byte a published snapshot retains (candidate pool,
// dialect embeddings, re-rank feature table) is accounted against a
// memgov budget, pool construction streams candidates through a RAM
// record buffer charged to the same budget, and every denial degrades
// — truncated pool, Degraded flag, healthz counters — instead of
// OOM-killing or panicking. A record charges at most an eighth of what
// its candidate then charges in the published snapshot, so a budget
// that denies a record could not have published the whole pool anyway.
//
// The budget can trip at three points, each truncating the pool there
// and flagging the build Degraded: the generalizer's search frontier,
// the record buffer, and the materialized snapshot (pool, then
// embeddings).

// SetResources installs the memory budget used by every subsequent
// pool build and charged by the translation cache; nil leaves the
// system unbudgeted. The fleet calls it right after constructing a
// tenant's system, before any Prepare/Rebuild/Restore can run.
func (s *System) SetResources(budget *memgov.Budget) {
	s.budget.Store(budget)
	s.transCache.Govern(budget, cachedBytes)
}

// cachedBytes is the retained size of a cached translation: its pool
// ids, scores and execution verdicts.
func cachedBytes(c *cachedTranslation) int64 {
	n := int64(96) + int64(len(c.ids))*4 + int64(len(c.scores))*8
	for _, v := range c.verdicts {
		n += 48 + int64(len(v.Detail))
	}
	return n
}

// Size estimators. memgov is an accountant, not an allocator: these
// deterministic estimates (derived only from string lengths, so a
// cold build and a checkpoint restore account identically) stand in
// for the retained heap bytes of each structure.

// recBytes estimates one buffered (sql, dialect) record.
func recBytes(r poolRec) int64 { return int64(len(r.sql)+len(r.dialect)) + 64 }

// candBytes estimates one materialized pool candidate: the parsed AST
// weighs roughly an order of magnitude more than its printed form.
func candBytes(r poolRec) int64 { return int64(len(r.sql)+len(r.dialect))*8 + 256 }

// vecBytes estimates one dialect embedding.
func vecBytes(v vector.Vec) int64 { return int64(len(v))*8 + 48 }

// tableBytes estimates one candidate's share of the re-rank feature
// table (rerank.Table.Bytes reads 400–600 B per candidate on the
// committed suites and SPIDER-like pools): the id sets and trigrams
// grow with the dialect, the header, offset and vocabulary share do
// not.
func tableBytes(dialect string) int64 { return int64(len(dialect)) + 320 }

// buildInfo is the degradation record of one pool build, published
// with the snapshot and surfaced through MemStats / healthz.
type buildInfo struct {
	Degraded      bool
	DegradeReason string
}

func (bi *buildInfo) degrade(reason string) {
	bi.Degraded = true
	if bi.DegradeReason == "" {
		bi.DegradeReason = reason
	}
}

// poolBuild is the outcome of one streaming pool construction.
type poolBuild struct {
	pool  []ltr.Candidate
	idx   *ltr.PoolIndex
	stats generalize.Stats
	info  buildInfo
	// mem accounts the materialized pool (and later its embeddings)
	// against the tenant budget; the snapshot that publishes this pool
	// adopts it, and it is released when that pool is replaced.
	mem *memgov.Reservation
}

// poolRec is the printed form of one streamed candidate: exactly the
// poolEntry shape checkpoints persist, so a cold build and a restore
// share one round-trip discipline (print → parse → bind) whose
// fixed-point property the snapshot tests already pin.
type poolRec struct {
	sql     string
	dialect string
}

// poolSink consumes the generalizer's stream. Records accumulate in
// RAM under one reservation on the system's budget.
type poolSink struct {
	buf     *memgov.Reservation
	express func(*sqlast.Query) string

	recs []poolRec
	info buildInfo
}

// add is the generalize.Sink: it prints the candidate's SQL and renders
// its dialect from the live AST and buffers the record. Its one error
// is the budget's denial of a record, which ends the stream: the pool
// is truncated there.
func (ps *poolSink) add(q *sqlast.Query) error {
	rec := poolRec{sql: q.String(), dialect: ps.express(q)}
	if err := ps.buf.Grow(recBytes(rec)); err != nil {
		return err
	}
	ps.recs = append(ps.recs, rec)
	return nil
}

// finish replays the buffered records into the materialized candidate
// pool, accounting each candidate against the snapshot reservation,
// and releases the buffer. Replay parses and binds each record's SQL,
// so a cold build constructs the pool a checkpoint restore of it does.
func (ps *poolSink) finish(db *schema.Database, snap *memgov.Reservation) ([]ltr.Candidate, buildInfo) {
	defer ps.buf.Release()
	var pool []ltr.Candidate
	for i, rec := range ps.recs {
		cand, err := materialize(db, i, rec, snap)
		if err != nil {
			ps.info.degrade(err.Error())
			break
		}
		pool = append(pool, cand)
	}
	if dropped := len(ps.recs) - len(pool); dropped > 0 {
		ps.info.DegradeReason = fmt.Sprintf("%s (%d candidates dropped)", ps.info.DegradeReason, dropped)
	}
	return pool, ps.info
}

// materialize re-parses and re-binds the seq-th record into a pool
// candidate, charging the snapshot reservation first so a denial
// truncates before allocating the AST.
func materialize(db *schema.Database, seq int, rec poolRec, snap *memgov.Reservation) (ltr.Candidate, error) {
	if err := snap.Grow(candBytes(rec)); err != nil {
		return ltr.Candidate{}, err
	}
	q, err := sqlparse.Parse(rec.sql)
	if err != nil {
		snap.Shrink(candBytes(rec))
		return ltr.Candidate{}, fmt.Errorf("core: streamed candidate %d does not re-parse: %v", seq, err)
	}
	if err := db.Bind(q); err != nil {
		snap.Shrink(candBytes(rec))
		return ltr.Candidate{}, fmt.Errorf("core: streamed candidate %d does not re-bind: %v", seq, err)
	}
	return ltr.Candidate{SQL: q, Dialect: rec.dialect}, nil
}

// buildPoolGoverned is the streaming, budget-accounted pool build:
// generalize.Stream feeds the sink, the sink buffers the records, and
// replay materializes the pool under the snapshot reservation. An
// unbudgeted system takes the same path with every governor inert.
func (s *System) buildPoolGoverned(samples []*sqlast.Query) *poolBuild {
	budget := s.budget.Load()
	sink := &poolSink{buf: budget.Hold(), express: s.expression}
	gres, err := generalize.Stream(s.DB, samples, generalize.Config{
		TargetSize: s.Opts.GeneralizeSize,
		Seed:       s.Opts.Seed,
		Rules:      generalize.AllRules(),
		Budget:     budget,
	}, sink.add)
	if err != nil {
		// A denied record ended the stream (the sink's one error): the
		// pool is the records buffered before it.
		sink.info.degrade(err.Error())
	}

	build := &poolBuild{stats: gres.Stats, mem: budget.Hold()}
	build.pool, build.info = sink.finish(s.DB, build.mem)
	if gres.Degraded {
		build.info.Degraded = true
		if build.info.DegradeReason == "" {
			build.info.DegradeReason = gres.DegradeReason
		}
	}
	build.idx = ltr.NewPoolIndex(build.pool)
	if build.info.Degraded {
		s.memDegradedBuilds.Add(1)
	}
	return build
}

// encodeBatch is how many dialects one budget reservation covers
// during the embedding build: coarse enough to stay off the hot path,
// fine enough that a denial truncates within one batch of the limit.
const encodeBatch = 256

// buildIndexGoverned embeds the pool's dialects in bounded batches,
// growing the snapshot reservation per batch by the embeddings and the
// candidates' share of the re-rank feature table. The embeddings land
// in one row-major block (vector.Rows), the layout a checkpoint
// restore decodes, so the scan reads them in memory order. pre, when
// non-nil, holds the pool's embeddings under encoder already (aligned
// with pool) and is used instead of encoding; the reservation grows
// batch by batch all the same, so a budget truncates it alike. A denial
// truncates the pool at the last complete batch: retrieval quality
// degrades (fewer candidates) but the system stays up. A budget too
// small for even the first batch is an error — that snapshot cannot
// exist at any size, and the caller must keep (or report) what it has.
// A nil reservation builds unbudgeted.
//
//garlint:allow ctxpass errlost -- snapshot build: no caller context to thread, and the ForEach body never returns an error
func buildIndexGoverned(pool []ltr.Candidate, encoder *embed.Encoder, pre []vector.Vec, opts Options, snap *memgov.Reservation) ([]ltr.Candidate, []vector.Vec, error) {
	vecs := pre
	if pre == nil {
		vecs = vector.Rows(len(pool), encoder.Dim())
	}
	for start := 0; start < len(pool); start += encodeBatch {
		end := min(start+encodeBatch, len(pool))
		if pre == nil {
			_ = parallel.ForEach(context.Background(), end-start, opts.Workers, func(i int) error {
				copy(vecs[start+i], encoder.Encode(pool[start+i].Dialect))
				return nil
			})
		}
		var batchBytes int64
		for i := start; i < end; i++ {
			batchBytes += vecBytes(vecs[i]) + tableBytes(pool[i].Dialect)
		}
		if err := snap.Grow(batchBytes); err != nil {
			if start == 0 {
				return nil, nil, fmt.Errorf("core: memory budget cannot hold one snapshot: %w", err)
			}
			return pool[:start], vecs[:start], nil
		}
	}
	return pool, vecs, nil
}

// candBytesOf recomputes the accounting estimate of a materialized
// candidate — the same value materialize charged for its record, since
// printing the bound AST reproduces the record's SQL text.
func candBytesOf(c ltr.Candidate) int64 {
	return candBytes(poolRec{sql: c.SQL.String(), dialect: c.Dialect})
}

// newPipelineGoverned assembles the online pipeline with the embedding
// vectors accounted in a fresh reservation against budget; pre, when
// non-nil, is the pool's embeddings under m.Encoder (see
// buildIndexGoverned). Budget
// pressure truncates the pool to the candidates whose embeddings fit:
// the survivors get a rebuilt lookup index and the dropped candidates'
// bytes return from poolRes to the budget. When the pool itself has
// consumed the whole budget — even the first embedding batch is
// denied — the tail of the pool is shed to make room and the build
// retries, so a tight-but-viable budget yields a small serving
// snapshot instead of no snapshot. Only a budget that cannot hold one
// candidate with its embedding is an error.
func newPipelineGoverned(pool []ltr.Candidate, poolIdx *ltr.PoolIndex, m *Models, pre []vector.Vec, opts Options,
	budget *memgov.Budget, poolRes *memgov.Reservation,
) (*ltr.Pipeline, []ltr.Candidate, *ltr.PoolIndex, *memgov.Reservation, bool, error) {
	vecRes := budget.Hold()
	full := len(pool)
	kept, vecs, err := buildIndexGoverned(pool, m.Encoder, pre, opts, vecRes)
	for err != nil && errors.Is(err, memgov.ErrBudgetExceeded) && len(pool) > 1 {
		cut := len(pool) / 2
		for _, c := range pool[cut:] {
			poolRes.Shrink(candBytesOf(c))
		}
		pool = pool[:cut]
		if pre != nil {
			pre = pre[:cut]
		}
		kept, vecs, err = buildIndexGoverned(pool, m.Encoder, pre, opts, vecRes)
	}
	if err != nil {
		vecRes.Release()
		return nil, nil, nil, nil, false, err
	}
	truncated := len(kept) < full
	if truncated {
		for _, c := range pool[len(kept):] {
			poolRes.Shrink(candBytesOf(c))
		}
		poolIdx = ltr.NewPoolIndex(kept)
	}
	return servingPipeline(kept, poolIdx, m, vecs, opts), kept, poolIdx, vecRes, truncated, nil
}

// servingPipeline assembles the online pipeline over a pool whose
// dialect embeddings are computed: the vector index over them, the
// static cost features and, when the pipeline re-ranks, the re-rank
// feature table — the one TrainModels built over this pool, else a new
// one. A checkpoint restore derives the same parts concurrently and
// decodes the table the checkpoint stores (see deriveSnapshot).
func servingPipeline(pool []ltr.Candidate, poolIdx *ltr.PoolIndex, m *Models, vecs []vector.Vec, opts Options) *ltr.Pipeline {
	pipe := &ltr.Pipeline{
		Encoder:    m.Encoder,
		Index:      indexFromVecs(vecs, opts),
		Pool:       pool,
		PoolIdx:    poolIdx,
		K:          opts.RetrievalK,
		SkipRerank: opts.NoRerank,
		Reranker:   m.Reranker,
		DialVecs:   vecs,
		Costs:      poolCosts(pool),
		Fillable:   poolFillable(pool),
		Workers:    opts.Workers,
	}
	if !opts.NoRerank && m.Reranker != nil {
		pipe.Table = m.poolTable(pool)
		if pipe.Table == nil {
			pipe.Table = ltr.PoolTable(pool)
		}
	}
	return pipe
}

// adoptSnapMem installs the reservations accounting the snapshot being
// published: whichever half (pool, embeddings) is replaced returns its
// outgoing bytes to the budget. Passing the currently-held reservation
// keeps that half's account. Callers hold writeMu.
func (s *System) adoptSnapMem(poolMem, vecMem *memgov.Reservation) {
	if s.snapMem != nil && s.snapMem != poolMem {
		s.snapMem.Release()
	}
	if s.vecMem != nil && s.vecMem != vecMem {
		s.vecMem.Release()
	}
	s.snapMem = poolMem
	s.vecMem = vecMem
	s.snapBytes.Store(poolMem.Bytes() + vecMem.Bytes())
}

// MemStats is the resource-governance gauge block surfaced through
// /healthz: the budget's accounting, the published snapshot's retained
// bytes, and the degradation record of the build that produced the
// current pool.
type MemStats struct {
	// Budget is the system's budget level (the tenant share under the
	// fleet); nil when unbudgeted.
	Budget *memgov.Stats `json:"budget,omitempty"`
	// SnapshotBytes is the accounted size of the published snapshot
	// (candidate pool + dialect embeddings + re-rank feature table).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Degraded and DegradeReason describe the published pool's build.
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// DegradedBuilds counts builds that finished degraded over this
	// system's lifetime.
	DegradedBuilds uint64 `json:"degraded_builds"`
}

// MemStats reports the resource-governance gauges, lock-free.
func (s *System) MemStats() MemStats {
	st := s.state.Load()
	return MemStats{
		Budget:         s.budget.Load().Stats(),
		SnapshotBytes:  s.snapBytes.Load(),
		Degraded:       st.info.Degraded,
		DegradeReason:  st.info.DegradeReason,
		DegradedBuilds: s.memDegradedBuilds.Load(),
	}
}

// ReleaseMemory returns every byte this system holds against the
// budget — the published snapshot's reservations and the governed
// caches' accounting. The fleet calls it as the last step of evicting
// a tenant: the System is about to be dropped, and anything left
// charged would bill the shared process budget forever.
func (s *System) ReleaseMemory() {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.adoptSnapMem(nil, nil)
	s.purgeCaches()
}
