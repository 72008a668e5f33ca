// Package gar is the public API of this repository: a Go implementation
// of GAR, the generate-and-rank approach for natural language to SQL
// translation (Fan et al., ICDE 2023).
//
// GAR translates natural-language questions into SQL for one database in
// three steps: it generalizes a set of sample SQL queries into a large
// pool of component-similar candidates, renders each candidate as a
// natural-language "dialect expression", and ranks the dialects against
// the user's question with a trained two-stage retrieval/re-ranking
// pipeline. The SQL behind the best dialect is the translation.
//
// Minimal usage:
//
//	db := gar.NewDatabase("company")
//	db.AddTable("employee", gar.Key("employee_id"),
//	    gar.NumberColumn("employee_id", "employee id"),
//	    gar.TextColumn("name", "name"),
//	    gar.NumberColumn("age", "age"))
//	sys, err := gar.New(db, gar.Options{})
//	err = sys.Prepare([]string{"SELECT name FROM employee WHERE age > 30"})
//	err = sys.Train([]gar.Example{{Question: "who is older than 30",
//	    SQL: "SELECT name FROM employee WHERE age > 30"}})
//	res, err := sys.Translate("show employees older than 40")
//	fmt.Println(res.SQL)
package gar

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/breaker"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/norm"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// Options configures a GAR system; the zero value is a sensible default.
type Options struct {
	// GeneralizeSize caps the candidate pool per database (the paper
	// uses 20,000; default 2,000).
	GeneralizeSize int
	// RetrievalK is the first-stage retrieval threshold (paper: 100).
	RetrievalK int
	// Seed makes every random choice reproducible.
	Seed int64
	// JoinAnnotations enables GAR-J: the database's join annotations
	// are used to verbalize joins and asterisks.
	JoinAnnotations bool
	// UseIVF switches first-stage retrieval to the clustered index
	// (faster on very large pools, slightly lossy).
	UseIVF bool
	// EncoderEpochs and RerankEpochs control training length.
	EncoderEpochs int
	RerankEpochs  int
	// StageBudget caps each translation stage at a fraction of the
	// time remaining until the request deadline when the stage starts,
	// so one slow stage cannot starve the stages (and fallbacks)
	// behind it. Fractions outside (0,1) disable budgeting for that
	// stage; the zero value disables all budgeting.
	StageBudget StageBudget
	// Workers bounds the fan-out of the parallel sections (pool
	// encoding at snapshot build, batched retrieval, re-rank scoring).
	// 0 means one worker per CPU; 1 forces the sequential path. The
	// ranked output is identical for every setting.
	Workers int
	// CacheSize caps each translation-path cache (question embeddings
	// and full translations, both invalidated automatically when the
	// pool generation changes) in entries; default 1024.
	CacheSize int
	// NoCache disables the translation-path caches entirely.
	NoCache bool
	// ExecGuide enables execution-guided reranking: after the learned
	// ranking, the top ExecTopK candidates are executed against a small
	// deterministic sample instance seeded from the schema (and the
	// content, when set) and candidates that error, exceed ExecBudget,
	// or return degenerate results are demoted. Off by default.
	ExecGuide bool
	// ExecBudget caps one candidate's execution wall time (default
	// 25ms); ExecTopK is how many top candidates execute (default 8).
	ExecBudget time.Duration
	ExecTopK   int
	// MemBudget caps the bytes of retained state (candidate pool,
	// dialect embeddings, translation caches) this system may hold;
	// 0 disables memory governance. Pool builds that hit the budget
	// spill to SpillDir or degrade to a truncated pool — they never
	// OOM-kill the process. See SetResources for fleet-managed budgets.
	MemBudget int64
	// SpillDir is where streaming pool builds overflow candidate
	// records once the RAM buffer budget trips. Empty disables
	// spilling: buffer pressure then truncates the pool instead.
	SpillDir string
	// SpillBufferBytes caps the in-RAM record buffer of a pool build
	// before it overflows to SpillDir. 0 derives a quarter of the
	// effective budget limit.
	SpillBufferBytes int64
}

// StageBudget holds the per-stage deadline fractions; see
// Options.StageBudget.
type StageBudget struct {
	Retrieval   float64
	Rerank      float64
	Postprocess float64
	ExecGuide   float64
}

func (o Options) internal() core.Options {
	return core.Options{
		GeneralizeSize:  o.GeneralizeSize,
		RetrievalK:      o.RetrievalK,
		Seed:            o.Seed,
		JoinAnnotations: o.JoinAnnotations,
		UseIVF:          o.UseIVF,
		EncoderEpochs:   o.EncoderEpochs,
		RerankEpochs:    o.RerankEpochs,
		StageBudget: core.StageBudget{
			Retrieval:   o.StageBudget.Retrieval,
			Rerank:      o.StageBudget.Rerank,
			Postprocess: o.StageBudget.Postprocess,
			ExecGuide:   o.StageBudget.ExecGuide,
		},
		Workers:          o.Workers,
		CacheSize:        o.CacheSize,
		NoCache:          o.NoCache,
		ExecGuide:        o.ExecGuide,
		ExecBudget:       o.ExecBudget,
		ExecTopK:         o.ExecTopK,
		MemBudget:        o.MemBudget,
		SpillDir:         o.SpillDir,
		SpillBufferBytes: o.SpillBufferBytes,
	}
}

// Example is one supervised training pair.
type Example struct {
	Question string
	SQL      string
}

// Candidate is one ranked translation.
type Candidate struct {
	// SQL is the translated query text.
	SQL string
	// Dialect is the natural-language dialect expression of the query.
	Dialect string
	// Score is the ranking score (higher is better).
	Score float64
}

// Result is the outcome of a translation.
type Result struct {
	// SQL is the top-ranked translation.
	SQL string
	// Dialect explains the top translation in (stilted) English.
	Dialect string
	// Candidates holds the ranked alternatives, best first.
	Candidates []Candidate
	// Generation is the pool generation of the snapshot that served
	// this translation: every candidate comes from that one snapshot,
	// even when a Prepare or Swap rebuild ran concurrently.
	Generation uint64
	// Degraded reports that a non-fatal pipeline stage (re-ranking or
	// value post-processing) failed or timed out and a fallback was
	// used: the result is usable but of reduced quality. Warnings
	// explains what happened.
	Degraded bool
	// Warnings lists each degradation that occurred.
	Warnings []string
}

// System is a GAR translator bound to one database.
type System struct {
	inner *core.System
	db    *schema.Database
}

// New creates a system for the database. The database must validate.
func New(db *Database, opts Options) (*System, error) {
	if err := db.inner.Validate(); err != nil {
		return nil, err
	}
	return &System{inner: core.New(db.inner, opts.internal()), db: db.inner}, nil
}

// Prepare runs the offline data-preparation process on the sample SQL
// queries: compositional generalization followed by dialect building.
// It must be called before Train.
func (s *System) Prepare(sampleSQL []string) error {
	queries, err := parseAll(sampleSQL)
	if err != nil {
		return err
	}
	s.inner.Prepare(queries)
	if s.inner.PoolSize() == 0 {
		return fmt.Errorf("gar: no sample query binds against database %s", s.db.Name)
	}
	return nil
}

// PoolSize reports how many candidate queries the preparation produced.
func (s *System) PoolSize() int { return s.inner.PoolSize() }

// Train fits the two-stage ranking models on the examples.
func (s *System) Train(examples []Example) error {
	converted, err := convertExamples(examples)
	if err != nil {
		return err
	}
	return s.inner.Train(converted)
}

// SetContent attaches table rows used for value linking during
// post-processing (filling literal values from the question).
func (s *System) SetContent(content *Content) {
	s.inner.SetContent(content.inner)
}

// Swap atomically replaces the system's candidate pool and deployed
// models: the new pool is generalized, rendered and indexed entirely
// off to the side, then published with a single atomic snapshot swap.
// Translations in flight finish against the old snapshot; unlike the
// Prepare+Train/UseModels sequence there is no intermediate window in
// which the system is unprepared or untrained, which is what `gar
// serve`'s zero-downtime POST /reload is built on. It returns the new
// pool generation.
func (s *System) Swap(sampleSQL []string, m *Models) (uint64, error) {
	queries, err := parseAll(sampleSQL)
	if err != nil {
		return 0, err
	}
	return s.inner.Swap(queries, m.inner)
}

// Generation reports the current pool generation: 0 before the first
// Prepare, bumped by every Prepare or Swap. Result.Generation records
// which generation served a translation.
func (s *System) Generation() uint64 { return s.inner.Generation() }

// Ready reports whether a complete translatable snapshot (prepared
// pool + deployed models) is published. Serving layers use it for
// readiness probing: false between process start (or a bare Prepare)
// and the completing Train/UseModels/Swap.
func (s *System) Ready() bool { return s.inner.Ready() }

// CacheStats reports hit/miss/size counters for the translation-path
// caches (question embeddings and full translations); all-zero when
// caching is disabled. Serving layers surface it in health endpoints.
type CacheStats = core.CacheStats

// CacheStats returns a point-in-time snapshot of the cache counters.
func (s *System) CacheStats() CacheStats { return s.inner.CacheStats() }

// ExecGuideStats reports the execution-guided reranking counters
// (candidates executed, demoted, errors, timeouts); all-zero while
// Options.ExecGuide is off. Serving layers surface it in /healthz.
type ExecGuideStats = core.ExecGuideStats

// ExecGuideStats returns a point-in-time snapshot of the exec-guide
// counters.
func (s *System) ExecGuideStats() ExecGuideStats { return s.inner.ExecGuideStats() }

// MemBudget is a hierarchical byte budget (see internal/memgov):
// reservations charge every level of a process → tenant → operation
// chain, and any level's denial makes the caller spill, truncate or
// skip instead of allocating. A nil budget is fully inert.
type MemBudget = memgov.Budget

// MemBudgetStats is one budget level's gauge snapshot (limit, used,
// peak, denials), shaped for health endpoints.
type MemBudgetStats = memgov.Stats

// NewMemBudget creates a root memory budget; limit <= 0 never denies
// (a pure meter). Derive per-tenant shares with Child.
func NewMemBudget(name string, limit int64) *MemBudget { return memgov.New(name, limit) }

// MemStats is the resource-governance gauge block of one system:
// budget accounting, published-snapshot bytes, spill gauges and the
// degradation record of the current pool's build.
type MemStats = core.MemStats

// MemStats reports the system's resource-governance gauges, lock-free.
func (s *System) MemStats() MemStats { return s.inner.MemStats() }

// SetResources installs the memory budget and spill directory used by
// every subsequent pool build, overriding the Options the system was
// created with. The fleet calls it right after constructing a tenant's
// system so each tenant charges its own share of the process budget.
func (s *System) SetResources(budget *MemBudget, spillDir string) {
	s.inner.SetResources(budget, spillDir)
}

// ReleaseMemory returns the published snapshot's budget reservations.
// Call it when the system is being discarded (the fleet's eviction
// path); without it the dropped snapshot's bytes would charge a shared
// budget forever.
func (s *System) ReleaseMemory() { s.inner.ReleaseMemory() }

// SetRerankBreaker installs a circuit breaker on the re-ranking stage:
// after repeated stage failures or timeouts the stage is skipped
// outright (retrieval-only degraded mode, flagged on Result.Degraded)
// until a cooldown and successful half-open probes close the breaker
// again. Pass nil to disable. Intended for serving layers; see
// internal/breaker for the state machine.
func (s *System) SetRerankBreaker(b *breaker.Breaker) { s.inner.SetRerankBreaker(b) }

// SetFaultInjector installs a deterministic fault injector fired at
// every translation stage boundary (see internal/faults). Pass nil to
// disable. This is a test-harness hook: burst, breaker and soak suites
// use it to inject errors, delays and gates into a live system.
func (s *System) SetFaultInjector(inj *faults.Injector) { s.inner.SetFaultInjector(inj) }

// Translate converts a natural-language question to SQL.
//
//garlint:allow ctxpass -- compatibility wrapper over TranslateContext
func (s *System) Translate(question string) (*Result, error) {
	return s.TranslateContext(context.Background(), question)
}

// TranslateContext converts a natural-language question to SQL,
// honoring the context's deadline and cancellation inside the ranking
// hot loops. Each pipeline stage runs inside a panic-isolation
// boundary, and non-fatal stage failures degrade gracefully instead of
// failing the call: a re-ranking failure or timeout returns the
// first-stage retrieval order, and a value post-processing failure
// returns the ranked SQL with literal placeholders left masked — both
// flagged via Result.Degraded with an explanation in Result.Warnings.
// Only a retrieval failure (or cancellation before a candidate list
// exists) returns an error.
//
// TranslateContext is safe for concurrent use; Prepare and Train may
// run concurrently with translations.
func (s *System) TranslateContext(ctx context.Context, question string) (*Result, error) {
	tr, err := s.inner.TranslateContext(ctx, question)
	if err != nil {
		return nil, err
	}
	out := &Result{Degraded: tr.Degraded, Warnings: tr.Warnings, Generation: tr.Generation}
	for _, c := range tr.Ranked {
		out.Candidates = append(out.Candidates, Candidate{
			SQL:     c.SQL.String(),
			Dialect: c.Dialect,
			Score:   c.Score,
		})
	}
	if tr.Top != nil {
		out.SQL = tr.Top.SQL.String()
		out.Dialect = tr.Top.Dialect
	}
	return out, nil
}

// Explain renders any SQL query as a dialect expression using the
// system's dialect builder (with join annotations under GAR-J).
func (s *System) Explain(sql string) (string, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if err := s.db.Bind(q); err != nil {
		return "", err
	}
	return s.inner.Builder().Express(q), nil
}

// Models are trained ranking models reusable across databases (the
// paper trains once per benchmark and deploys on unseen databases).
type Models struct{ inner *core.Models }

// TrainModels fits shared models over several prepared systems.
func TrainModels(sets []TrainingSet, opts Options) (*Models, error) {
	var converted []core.TrainingSet
	for _, set := range sets {
		examples, err := convertExamples(set.Examples)
		if err != nil {
			return nil, err
		}
		converted = append(converted, core.TrainingSet{Sys: set.System.inner, Examples: examples})
	}
	m, err := core.TrainModels(converted, opts.internal())
	if err != nil {
		return nil, err
	}
	return &Models{inner: m}, nil
}

// TrainingSet couples a prepared System with its training examples.
type TrainingSet struct {
	System   *System
	Examples []Example
}

// UseModels deploys pre-trained models on this (prepared) system,
// bringing it online without its own training examples.
func (s *System) UseModels(m *Models) error { return s.inner.UseModels(m.inner) }

// ExactMatch reports whether two SQL queries are equivalent under
// SPIDER-style normalization (clause sets, alias- and value-invariant).
func ExactMatch(a, b string) (bool, error) {
	qa, err := sqlparse.Parse(a)
	if err != nil {
		return false, fmt.Errorf("gar: first query: %w", err)
	}
	qb, err := sqlparse.Parse(b)
	if err != nil {
		return false, fmt.Errorf("gar: second query: %w", err)
	}
	return norm.ExactMatch(qa, qb), nil
}

func parseAll(sqls []string) ([]*sqlast.Query, error) {
	out := make([]*sqlast.Query, 0, len(sqls))
	for _, s := range sqls {
		q, err := sqlparse.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("gar: parsing %q: %w", s, err)
		}
		out = append(out, q)
	}
	return out, nil
}

func convertExamples(examples []Example) ([]ltr.Example, error) {
	out := make([]ltr.Example, 0, len(examples))
	for _, ex := range examples {
		q, err := sqlparse.Parse(ex.SQL)
		if err != nil {
			return nil, fmt.Errorf("gar: parsing example %q: %w", ex.SQL, err)
		}
		out = append(out, ltr.Example{NL: ex.Question, Gold: q})
	}
	return out, nil
}

// Content holds table rows for value linking and query execution.
type Content struct {
	inner *engine.Instance
}

// NewContent creates an empty content store for the database.
func NewContent(db *Database) *Content {
	return &Content{inner: engine.NewInstance(db.inner)}
}

// Insert appends one row to a table; values may be string, int, int64
// or float64.
func (c *Content) Insert(table string, values ...any) error {
	row := make([]engine.Value, 0, len(values))
	for _, v := range values {
		switch x := v.(type) {
		case string:
			row = append(row, engine.Str(x))
		case int:
			row = append(row, engine.Num(float64(x)))
		case int64:
			row = append(row, engine.Num(float64(x)))
		case float64:
			row = append(row, engine.Num(x))
		case nil:
			row = append(row, engine.NullValue())
		default:
			return fmt.Errorf("gar: unsupported value type %T", v)
		}
	}
	return c.inner.Insert(table, row...)
}

// Query executes a SQL query against the content and returns the result
// rows as strings.
func (c *Content) Query(sql string) ([][]string, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := c.inner.Exec(q)
	if err != nil {
		return nil, err
	}
	out := make([][]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		row := make([]string, 0, len(r))
		for _, v := range r {
			row = append(row, v.String())
		}
		out = append(out, row)
	}
	return out, nil
}

// ErrCorruptModels is wrapped by LoadModels/LoadModelsFile when the
// model stream fails integrity verification — a torn write, a
// truncated file, a bit flip. Check with errors.Is to distinguish
// corruption (restore from a good copy) from ordinary I/O errors.
var ErrCorruptModels = core.ErrCorruptModels

// Save writes the trained models to w in a checksummed envelope;
// reload them with LoadModels and deploy on any prepared system via
// UseModels, skipping training.
func (m *Models) Save(w io.Writer) error { return m.inner.Save(w) }

// SaveFile writes the trained models to a file crash-safely: the data
// is written to a temporary file in the same directory, fsynced, and
// atomically renamed over path, so a crash mid-save never leaves a
// torn file behind. A trailing checksum in the stream lets LoadModels
// reject any torn write that slips through anyway.
func (m *Models) SaveFile(path string) error { return m.inner.SaveFile(path) }

// LoadModels reads models previously written with Save, verifying the
// stream checksum first; corrupted streams fail with an error wrapping
// ErrCorruptModels and never panic. Files older builds saved in the
// version-1 format still load.
func LoadModels(r io.Reader) (*Models, error) {
	inner, err := core.LoadModels(r)
	if err != nil {
		return nil, err
	}
	return &Models{inner: inner}, nil
}

// LoadModelsFile reads models from a file written by SaveFile.
func LoadModelsFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModels(f)
}

// Durable serving-state checkpoints. A checkpoint captures the complete
// serving snapshot — candidate pool, dialect expressions, candidate
// embeddings and trained models — as one versioned, checksummed file
// (see internal/checkpoint), so a restarted process warm-starts in
// seconds instead of re-running Prepare and Train.

// ErrNotReady is returned by ExportCheckpoint while the system has no
// translatable snapshot: nothing durable exists before the first
// completed Train/UseModels/Swap.
var ErrNotReady = core.ErrNotReady

// CheckpointStats reports the background checkpointer's counters (last
// written generation and time, write/failure/prune totals); serving
// layers surface it in health endpoints.
type CheckpointStats = core.CheckpointStats

// CheckpointerConfig tunes the background checkpointer: retention,
// burst coalescing, and retry backoff. The zero value is a sensible
// serving default.
type CheckpointerConfig = core.CheckpointerConfig

// Checkpointer persists the serving snapshot in the background after
// every Prepare/Train/Swap, coalescing bursts and retrying failures
// with jittered exponential backoff; see NewCheckpointer.
type Checkpointer = core.Checkpointer

// ExportCheckpoint renders the published serving snapshot as a
// checkpoint manifest plus sections, ready for checkpoint.Store.Write
// (or Encode). It fails with ErrNotReady before the system is Ready.
func (s *System) ExportCheckpoint() (checkpoint.Manifest, []checkpoint.Section, error) {
	return s.inner.ExportCheckpoint()
}

// WriteCheckpoint exports the serving snapshot and persists it
// crash-safely into the store, returning the checkpointed generation.
func (s *System) WriteCheckpoint(st *checkpoint.Store) (uint64, error) {
	m, sections, err := s.inner.ExportCheckpoint()
	if err != nil {
		return 0, err
	}
	if err := st.Write(m, sections); err != nil {
		return 0, err
	}
	return m.Generation, nil
}

// RestoreCheckpoint rebuilds and atomically publishes the complete
// serving snapshot from a decoded checkpoint: after it returns the
// system is Ready and translates without running Prepare or Train. A
// checkpoint for another database fails with checkpoint.ErrIncompatible
// and an internally inconsistent one with checkpoint.ErrCorrupt; on any
// failure the system is left untouched.
func (s *System) RestoreCheckpoint(ck *checkpoint.Checkpoint) error {
	return s.inner.RestoreCheckpoint(ck)
}

// RecoverCheckpoint walks the store's checkpoints newest-first and
// restores the first one that fully validates against this system,
// falling back generation-by-generation past anything torn, corrupt or
// incompatible (each recorded in skipped). A nil returned checkpoint
// with nil error means nothing recoverable exists and the system is
// unchanged — the caller starts from a clean empty state — but for its
// generation numbering: the next pool it builds numbers above every
// skipped file, so its checkpoints supersede them. A checkpointer on
// the same store counts the restored state as already written, so a
// tenant that never changes is never re-checkpointed.
func (s *System) RecoverCheckpoint(st *checkpoint.Store) (*checkpoint.Checkpoint, []checkpoint.Skipped, error) {
	return s.inner.RecoverCheckpoint(st)
}

// NewCheckpointer couples this system with a checkpoint store. Start
// registers it on the system's publish hook so every Prepare, Train,
// UseModels and Swap schedules a durable checkpoint; Flush writes one
// synchronously (the graceful-shutdown path).
func (s *System) NewCheckpointer(st *checkpoint.Store, cfg CheckpointerConfig) *Checkpointer {
	return core.NewCheckpointer(s.inner, st, cfg)
}
