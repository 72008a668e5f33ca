// Package core assembles the complete GAR system of the paper: the data
// preparation process (compositional generalization + dialect building),
// the two-stage learning-to-rank translation pipeline, the GAR-J join
// annotation mode, and the value post-processing step. It exposes the
// per-stage hooks the evaluation harness needs for error attribution
// (Table 9): data-preparation misses, retrieval misses and re-ranking
// misses.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/dialect"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/execguide"
	"repro/internal/faults"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/text"
	"repro/internal/transcache"
	"repro/internal/values"
	"repro/internal/vector"
	"repro/internal/vindex"
)

// StageBudget caps each translation stage at a fraction of the time
// remaining until the request deadline when the stage starts, so one
// slow stage cannot eat the entire deadline and starve the stages (and
// fallbacks) behind it. A fraction outside (0,1) disables budgeting
// for that stage, and a context without a deadline is never budgeted.
// The zero value disables all budgeting.
type StageBudget struct {
	Retrieval   float64
	Rerank      float64
	Postprocess float64
	ExecGuide   float64
}

// Options configures a GAR system. The zero value gives the paper's
// defaults scaled down to laptop sizes.
type Options struct {
	// GeneralizeSize caps the generalized query set per database
	// (paper: 20,000). Default 2,000.
	GeneralizeSize int
	// RetrievalK is the first-stage threshold k (paper: 100).
	RetrievalK int
	// Seed drives every random choice in the system.
	Seed int64
	// JoinAnnotations enables GAR-J: the dialect builder uses the
	// database's join annotations.
	JoinAnnotations bool
	// NoDialect is the "w/o Dialect Builder" ablation: the ranking
	// models see raw SQL strings instead of dialect expressions.
	NoDialect bool
	// NoRerank is the "w/o Re-ranking Model" ablation: the retrieval
	// order is final.
	NoRerank bool
	// EncoderEpochs / RerankEpochs control training length.
	EncoderEpochs int
	RerankEpochs  int
	// RerankTrainK is the list length used to train the re-ranker
	// (paper: 100, batch-limited). Default: RetrievalK.
	RerankTrainK int
	// StageBudget derives per-stage deadlines from the request
	// deadline; see StageBudget. Zero disables.
	StageBudget StageBudget
	// Workers bounds the fan-out of parallel sections — pool encoding
	// at snapshot build, the retrieval scan (in shards of at least
	// 2,048 candidates, so smaller pools scan sequentially), batched
	// retrieval, and re-rank scoring. 0 means one worker per CPU; 1
	// forces the sequential path. Every worker count ranks identically.
	Workers int
	// CacheSize caps each translation-path cache (question embeddings,
	// full translations) in entries. Default 1024. See NoCache.
	CacheSize int
	// NoCache disables the translation-path caches entirely (the
	// benchmark's cold path, and a debugging escape hatch).
	NoCache bool
	// ExecGuide enables execution-guided reranking: after value
	// post-processing the top ExecTopK candidates are executed against
	// a deterministic seeded sample instance and candidates that error,
	// exceed ExecBudget, or return degenerate results are demoted (see
	// internal/execguide). Off by default.
	ExecGuide bool
	// ExecBudget caps one candidate's execution wall time under
	// ExecGuide (default 25ms).
	ExecBudget time.Duration
	// ExecTopK is how many of the best-ranked candidates ExecGuide
	// executes (default 8).
	ExecTopK int
	// MemBudget caps the bytes of retained state (candidate pool,
	// dialect embeddings, pool-build buffers) this system may hold;
	// 0 means unbudgeted. The fleet overrides it per tenant through
	// SetResources.
	MemBudget int64
	// SpillDir is where streaming pool builds spill candidate records
	// once the RAM buffer budget trips. Empty disables spilling:
	// buffer pressure then truncates the pool instead (Degraded).
	SpillDir string
	// SpillBufferBytes caps the in-RAM record buffer of a streaming
	// pool build before it overflows to SpillDir. 0 derives a quarter
	// of the effective budget limit.
	SpillBufferBytes int64
}

func (o *Options) fill() {
	if o.GeneralizeSize <= 0 {
		o.GeneralizeSize = 2000
	}
	if o.RetrievalK <= 0 {
		o.RetrievalK = 100
	}
	if o.EncoderEpochs <= 0 {
		o.EncoderEpochs = 6
	}
	if o.RerankEpochs <= 0 {
		o.RerankEpochs = 8
	}
	if o.RerankTrainK <= 0 {
		o.RerankTrainK = o.RetrievalK
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.ExecBudget <= 0 {
		o.ExecBudget = 25 * time.Millisecond
	}
	if o.ExecTopK <= 0 {
		o.ExecTopK = 8
	}
}

// state is one immutable published snapshot of the system: the
// candidate pool, its lookup index, the deployed models and pipeline,
// the value linker and the fault injector — everything a translation
// reads. A state is never mutated after publication; mutators build a
// fresh one and publish it with a single atomic pointer swap, so a
// translation that loaded a state once sees a consistent
// {pool, index, models} triple for its whole lifetime.
type state struct {
	// gen is the pool generation, bumped by every Prepare/Rebuild that
	// replaces the candidate pool.
	gen uint64
	// pub numbers the publication that made this state current (0 for
	// the state New installs); every publication gets a fresh number,
	// so it names exactly one state.
	pub      uint64
	pool     []ltr.Candidate
	poolIdx  *ltr.PoolIndex
	encoder  *embed.Encoder
	pipeline *ltr.Pipeline
	linker   *values.Linker
	// guide, when non-nil, is the execution-guided reranking stage's
	// seeded sample instance; rebuilt by SetContent so seeded rows draw
	// from the spec's value index.
	guide     *execguide.Guide
	prepStats generalize.Stats
	// info is the resource-governance record of the build that produced
	// this snapshot's pool: degradation flag and reason, spill gauges.
	info    buildInfo
	trained bool
	inj     *faults.Injector
}

// System is a GAR instance bound to one database.
//
// A System is safe for concurrent Translate/TranslateContext calls.
// State mutations (Prepare, Train, UseModels, Rebuild, SetContent) build
// a complete new snapshot off to the side and publish it with one
// atomic pointer swap: translations never block on a rebuild — they
// keep running against the snapshot they loaded — and never observe a
// half-updated system.
type System struct {
	DB   *schema.Database
	Opts Options

	// builder is immutable after New.
	builder *dialect.Builder

	// writeMu serializes mutators; readers never take it.
	writeMu sync.Mutex
	// pubs is the number of the latest publication; writeMu-guarded.
	pubs uint64
	// skippedGen is the highest generation RecoverCheckpoint found in a
	// store but could not restore; writeMu-guarded. Every new
	// generation numbers above it (see nextGen).
	skippedGen uint64
	// samples and content feed the exec-guide's seeded sample instance
	// (literal harvesting and cell values); both are writeMu-guarded and
	// only read to rebuild the guide inside a mutation.
	samples []*sqlast.Query
	content *engine.Instance
	// state is the published snapshot; see the state type.
	state atomic.Pointer[state]
	// rerankBreaker, when set, circuit-breaks the re-ranking stage;
	// see SetRerankBreaker.
	rerankBreaker atomic.Pointer[breaker.Breaker]

	// publishHook, when set, runs after every snapshot publication; see
	// SetPublishHook.
	publishHook atomic.Pointer[func()]

	// Exec-guide counters, maintained lock-free by the translate path;
	// see ExecGuideStats.
	execExecuted atomic.Uint64
	execDemoted  atomic.Uint64
	execErrors   atomic.Uint64
	execTimeouts atomic.Uint64

	// resources carries the memory budget and spill directory every
	// pool build reads; installed by New from Options, overridden per
	// tenant by SetResources.
	resources atomic.Pointer[resources]
	// snapMem accounts the published snapshot's candidate-pool bytes
	// and vecMem its dialect-embedding and feature-table bytes, both
	// against the budget.
	// They are writeMu-guarded and replaced at each publication that
	// rebuilds the matching half (a model redeploy replaces only the
	// embeddings); snapBytes mirrors their sum for lock-free gauges.
	snapMem   *memgov.Reservation
	vecMem    *memgov.Reservation
	snapBytes atomic.Int64
	// memDegradedBuilds counts snapshot builds that finished degraded
	// under resource pressure; see MemStats.
	memDegradedBuilds atomic.Uint64

	// embedCache memoizes question embeddings and transCache whole
	// translation results, both keyed by (pool generation, NL question).
	// The generation key makes every Prepare/Rebuild an implicit flush: an
	// entry from an older snapshot can never be served after a hot
	// reload. Nil when Options.NoCache is set (a nil cache never hits).
	embedCache *transcache.Cache[vector.Vec]
	transCache *transcache.Cache[*cachedTranslation]

	// recovered records the store and publication of the state the last
	// RecoverCheckpoint restored, so a checkpointer on that store knows
	// the state is already durable; see RecoverCheckpoint.
	recovered atomic.Pointer[recovery]
}

// New creates a GAR system for the database.
func New(db *schema.Database, opts Options) *System {
	opts.fill()
	s := &System{DB: db, Opts: opts}
	if opts.JoinAnnotations {
		s.builder = dialect.NewJ(db)
	} else {
		s.builder = dialect.New(db)
	}
	st := &state{linker: values.NewLinker(db, nil)}
	if opts.ExecGuide {
		st.guide = execguide.New(db, nil, execguide.Seeds{}, s.guideConfig())
	}
	s.state.Store(st)
	var budget *memgov.Budget
	if opts.MemBudget > 0 {
		budget = memgov.New("system", opts.MemBudget)
	}
	s.resources.Store(&resources{budget: budget, spillDir: opts.SpillDir, bufBytes: opts.SpillBufferBytes})
	if !opts.NoCache {
		s.embedCache = transcache.New[vector.Vec](s.Opts.CacheSize)
		s.transCache = transcache.New[*cachedTranslation](s.Opts.CacheSize)
		s.governCaches(budget)
	}
	return s
}

// CacheStats reports the hit/miss/size counters of the translation-path
// caches; all-zero when caching is disabled.
type CacheStats struct {
	Embeddings   transcache.Stats `json:"embeddings"`
	Translations transcache.Stats `json:"translations"`
}

// CacheStats returns a point-in-time snapshot of the cache counters.
func (s *System) CacheStats() CacheStats {
	return CacheStats{
		Embeddings:   s.embedCache.Stats(),
		Translations: s.transCache.Stats(),
	}
}

// purgeCaches drops every cached embedding and translation. Mutators
// whose changes are not visible in the pool generation (a new linker, a
// model redeploy on the same pool) call it so a stale result can never
// outlive the state that produced it.
func (s *System) purgeCaches() {
	s.embedCache.Purge()
	s.transCache.Purge()
}

// guideConfig maps the exec-guide options onto the guide's tunables.
func (s *System) guideConfig() execguide.Config {
	return execguide.Config{TopK: s.Opts.ExecTopK, Budget: s.Opts.ExecBudget}
}

// buildGuide reseeds the exec-guide sample instance from the current
// content and sample queries: content donates realistic cell values,
// the samples donate the literal filter values candidates are likely to
// carry after value post-processing. Callers must hold writeMu (samples
// and content are writeMu-guarded); the build itself is a few dozen
// row inserts and stays cheap enough to run inside the mutation.
func (s *System) buildGuide() *execguide.Guide {
	if !s.Opts.ExecGuide {
		return nil
	}
	return execguide.New(s.DB, s.content, execguide.HarvestSeeds(s.DB, s.samples), s.guideConfig())
}

// SetContent attaches a populated instance used for value linking in the
// post-processing step (cell-value → column hints). Under ExecGuide the
// execution guide's sample instance is reseeded from the same content,
// so executed candidates see realistic cell values.
func (s *System) SetContent(content *engine.Instance) {
	// The linker rebuild is the expensive part and only reads the
	// content; run it outside the snapshot mutation.
	linker := values.NewLinker(s.DB, content)
	s.mutate(func(st *state) {
		st.linker = linker
		s.content = content
		if guide := s.buildGuide(); guide != nil {
			st.guide = guide
		}
	})
}

// SetFaultInjector installs a fault injector fired at every stage
// boundary of TranslateContext. Pass nil to disable. Intended for the
// fault-injection test harness and resilience soak runs.
func (s *System) SetFaultInjector(inj *faults.Injector) {
	s.mutate(func(st *state) {
		st.inj = inj
	})
}

// SetRerankBreaker installs a circuit breaker guarding the re-ranking
// stage: when the breaker refuses a call, the stage is skipped outright
// and the translation degrades to retrieval order without paying the
// failure cost. Stage outcomes (success, error, timeout) are reported
// to the breaker; client cancellations are forgiven. Pass nil to
// disable.
func (s *System) SetRerankBreaker(b *breaker.Breaker) {
	s.rerankBreaker.Store(b)
}

// SetPublishHook registers fn to run after every snapshot publication
// (Prepare, UseModels, Rebuild, SetContent, RestoreCheckpoint, …). The
// hook runs on the mutator's goroutine with the write lock held, so it
// must be fast, must not block, and must not call back into System
// mutators — a non-blocking channel send is the intended shape. At most
// one hook is installed; pass nil to remove it. The background
// checkpointer uses this as its dirty signal.
func (s *System) SetPublishHook(fn func()) {
	if fn == nil {
		s.publishHook.Store(nil)
		return
	}
	s.publishHook.Store(&fn)
}

// publish is the single publication point of a new snapshot: it numbers
// the publication, the atomic store makes it visible to readers, then
// the publish hook (if any) is signalled. Callers hold writeMu.
func (s *System) publish(next *state) {
	s.pubs++
	next.pub = s.pubs
	s.state.Store(next)
	if fn := s.publishHook.Load(); fn != nil {
		(*fn)()
	}
}

// nextGen is the pool generation after gen and after every generation
// RecoverCheckpoint had to skip. A store ranks its files by generation
// — recovery reads the newest first, retention keeps the newest — so a
// snapshot built after skipping files this build cannot restore (an
// older layout version, corruption) must outnumber them, or its
// checkpoints would be pruned as older than the files they replace.
// Callers hold writeMu.
func (s *System) nextGen(gen uint64) uint64 {
	return max(gen, s.skippedGen) + 1
}

// mutate publishes a new snapshot derived from the current one: fn
// edits a shallow copy, and the single atomic store is the publication
// point.
func (s *System) mutate(fn func(st *state)) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	fn(&next)
	s.publish(&next)
	// Whatever changed (linker, injector, pool), results computed
	// against the old state must not be served against the new one.
	s.purgeCaches()
}

// Prepare runs the offline data preparation process (Fig. 2 steps 1-2):
// generalizes the sample queries and renders each generalized query as a
// dialect expression, building the candidate pool. The new pool starts
// a new generation and un-deploys any trained pipeline (it indexes the
// old pool). To replace pool and models in one step with no untrained
// window, Prepare and train the fork Rebuild hands out instead.
func (s *System) Prepare(samples []*sqlast.Query) {
	// Generalization is the expensive part; with copy-on-write
	// snapshots it runs off to the side and in-flight translations keep
	// serving the old snapshot untouched.
	build := s.buildPoolGoverned(samples)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	next.gen = s.nextGen(next.gen)
	next.prepStats = build.stats
	next.pool = build.pool
	next.poolIdx = build.idx
	next.info = build.info
	next.encoder = nil
	next.pipeline = nil
	next.trained = false
	s.samples = samples
	if guide := s.buildGuide(); guide != nil {
		next.guide = guide
	}
	s.adoptSnapMem(build.mem, nil)
	s.publish(&next)
	s.purgeCaches()
}

// expression renders a candidate for ranking: a dialect expression, or
// the raw SQL string under the w/o-Dialect-Builder ablation.
func (s *System) expression(q *sqlast.Query) string {
	if s.Opts.NoDialect {
		return q.String()
	}
	return s.builder.Express(q)
}

// PrepStats reports the generalization statistics of the last Prepare.
func (s *System) PrepStats() generalize.Stats {
	return s.state.Load().prepStats
}

// PoolSize returns the candidate pool size.
func (s *System) PoolSize() int {
	return len(s.state.Load().pool)
}

// Generation reports the current pool generation: 0 before the first
// Prepare, bumped by every Prepare or Rebuild. Translation results record
// the generation they were served from.
func (s *System) Generation() uint64 {
	return s.state.Load().gen
}

// Ready reports whether a translatable snapshot is published: a
// prepared pool with deployed models. False during the window between
// process start (or a Prepare) and the completing UseModels/Train/Rebuild.
func (s *System) Ready() bool {
	return s.state.Load().trained
}

// snapshot returns the current pool and its index. The returned slice
// is never mutated after publication (mutators swap in a fresh one),
// so callers may use it lock-free.
func (s *System) snapshot() ([]ltr.Candidate, *ltr.PoolIndex) {
	st := s.state.Load()
	return st.pool, st.poolIdx
}

// PoolDialects returns the dialect rendering of every candidate in the
// current pool snapshot, in pool order. Generalization is seeded, so a
// given sample set always produces the same dialect set — which lets
// tests map a Translation.Generation back to the pool that served it.
func (s *System) PoolDialects() []string {
	pool, _ := s.snapshot()
	out := make([]string, len(pool))
	for i, c := range pool {
		out[i] = c.Dialect
	}
	return out
}

// HasCandidate reports whether the pool contains a query exact-matching
// gold; false means a data-preparation miss.
func (s *System) HasCandidate(gold *sqlast.Query) bool {
	_, idx := s.snapshot()
	return idx != nil && idx.Find(s.BindGold(gold)) >= 0
}

// BindGold resolves a benchmark gold query against this database so its
// canonical form is comparable with the (bound) candidate pool. The
// original query is not modified; an unbindable query is returned as-is.
func (s *System) BindGold(q *sqlast.Query) *sqlast.Query {
	if q == nil {
		return nil
	}
	c := q.Clone()
	if err := s.DB.Bind(c); err != nil {
		return q
	}
	return c
}

// bindExamples rebinds every example's gold query against this database.
func (s *System) bindExamples(examples []ltr.Example) []ltr.Example {
	out := make([]ltr.Example, len(examples))
	for i, ex := range examples {
		out[i] = ltr.Example{NL: ex.NL, Gold: s.BindGold(ex.Gold)}
	}
	return out
}

// Models holds the trained cross-database ranking models: the paper
// fine-tunes one retrieval encoder and one re-ranker per benchmark on
// the train-split databases and applies them to the unseen validation
// databases.
type Models struct {
	Encoder  *embed.Encoder
	Reranker *rerank.Model // nil under the w/o-Re-ranking ablation

	// trained is the pool embeddings TrainModels computed to build its
	// lists, kept when it trained on one set, so that UseModels on the
	// same pool deploys them instead of encoding the pool again.
	trained trainedVecs
}

// trainedVecs is one pool's dialect embeddings under one encoder.
type trainedVecs struct {
	pool    []ltr.Candidate
	encoder *embed.Encoder
	vecs    []vector.Vec
}

// poolVecs returns the embeddings TrainModels computed for pool, or
// nil when it trained on another pool or m.Encoder is no longer the
// encoder it trained (a candidate mutation may replace it). Pools are
// immutable once published, so the same slice is the same candidates.
func (m *Models) poolVecs(pool []ltr.Candidate) []vector.Vec {
	t := m.trained
	if len(pool) == 0 || len(t.pool) != len(pool) || &t.pool[0] != &pool[0] || t.encoder != m.Encoder {
		return nil
	}
	return t.vecs
}

// TrainingSet couples a prepared per-database System with its (NL, gold)
// training examples.
type TrainingSet struct {
	Sys      *System
	Examples []ltr.Example
}

// TrainModels fits the two-stage ranking models on the training sets,
// following the paper's training phase (Fig. 3): triplets for the
// retrieval encoder over each database's candidate pool, then top-k
// listwise groups for the re-ranker. Every set's System must be
// Prepared. The lists are built over the pool embeddings under the
// trained encoder; with one set, the models keep them for UseModels.
func TrainModels(sets []TrainingSet, opts Options) (*Models, error) {
	return trainModels(sets, opts, nil)
}

// trainModels is TrainModels, closing each stage on clock (nil for
// every build but a profiled one; see ProfileBuild).
func trainModels(sets []TrainingSet, opts Options, clock *stageClock) (*Models, error) {
	opts.fill()
	// Snapshot each system's pool once up front: training then proceeds
	// lock-free even if a concurrent Prepare swaps a pool underneath.
	pools := make([][]ltr.Candidate, len(sets))
	poolIdxs := make([]*ltr.PoolIndex, len(sets))
	var corpus []string
	for i, set := range sets {
		pools[i], poolIdxs[i] = set.Sys.snapshot()
		if len(pools[i]) == 0 {
			return nil, fmt.Errorf("core: TrainModels with unprepared system for %s", set.Sys.DB.Name)
		}
		sets[i].Examples = set.Sys.bindExamples(set.Examples)
		for _, c := range pools[i] {
			corpus = append(corpus, c.Dialect)
		}
		for _, ex := range sets[i].Examples {
			corpus = append(corpus, ex.NL)
		}
	}

	// Retrieval model.
	encoder := embed.NewEncoder(embed.Config{Seed: opts.Seed})
	encoder.FitIDF(corpus)
	var triplets []embed.Triplet
	for i, set := range sets {
		triplets = append(triplets,
			ltr.BuildTriplets(set.Examples, pools[i], poolIdxs[i], 4, opts.Seed+int64(i)+1)...)
	}
	clock.mark(stageEncoderFit)
	encoder.Train(triplets, embed.TrainConfig{Epochs: opts.EncoderEpochs})
	clock.mark(stageEncoderTrain)

	m := &Models{Encoder: encoder}
	if opts.NoRerank {
		return m, nil
	}

	// Re-ranking model over per-database retrieval top-k lists.
	x := &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: encoder}
	model, err := rerank.New(x, opts.Seed+3)
	if err != nil {
		return nil, err
	}
	var lists []rerank.TrainingList
	for i := range sets {
		// Unbudgeted: nothing can truncate the pool or deny the build.
		_, vecs, err := buildIndexGoverned(pools[i], encoder, nil, opts, nil)
		if err != nil {
			return nil, err
		}
		if len(sets) == 1 {
			m.trained = trainedVecs{pool: pools[i], encoder: encoder, vecs: vecs}
		}
		clock.mark(stagePoolEncode)
		// m has no re-ranker yet, so the pipeline has no feature table:
		// the lists are retrieval's top k.
		pipe := servingPipeline(pools[i], poolIdxs[i], m, vecs, opts)
		lists = append(lists, pipe.BuildLists(sets[i].Examples, opts.RerankTrainK)...)
		clock.mark(stageListsBuild)
	}
	features := model.TrainingFeatures(lists)
	clock.mark(stageRerankFeatures)
	model.Net.TrainListwise(features, nn.TrainConfig{Epochs: opts.RerankEpochs, Seed: opts.Seed + 4})
	clock.mark(stageListNet)
	m.Reranker = model
	return m, nil
}

// indexFromVecs assembles the exact vector index over already-computed
// embeddings, scanning in shards across opts.Workers. It is the shared
// tail of a fresh snapshot build and a checkpoint restore — a warm
// start feeds the persisted vectors straight in and never re-encodes
// the pool.
func indexFromVecs(vecs []vector.Vec, opts Options) vindex.Index {
	return vindex.NewFlatRows(vecs, opts.Workers)
}

// poolCosts computes the static estimated-cost feature of every pool
// candidate (see execguide.CostFeature); the re-ranker reads it as an
// input feature, so every pipeline this package builds carries it.
func poolCosts(pool []ltr.Candidate) []float64 {
	out := make([]float64, len(pool))
	for i, c := range pool {
		out[i] = execguide.CostFeature(c.SQL)
	}
	return out
}

// poolFillable reports per pool candidate whether value
// post-processing can change it (see ltr.Pipeline.Fillable).
func poolFillable(pool []ltr.Candidate) []bool {
	out := make([]bool, len(pool))
	for i, c := range pool {
		out[i] = values.HasPlaceholder(c.SQL)
	}
	return out
}

// fillSQL instantiates the placeholders of pool candidate id, whose
// query is q, from the question's values. It copies q only when there
// is something to fill: values were found and the candidate is
// fillable. Otherwise it returns q itself, shared with the pool — Fill
// would return an equal copy.
func fillSQL(p *ltr.Pipeline, linker *values.Linker, id int, q *sqlast.Query, vals []values.NLValue) *sqlast.Query {
	if len(vals) == 0 || (p.Fillable != nil && !p.Fillable[id]) {
		return q
	}
	return linker.Fill(q, vals)
}

// UseModels deploys pre-trained models on this (prepared) system:
// the candidate pool is embedded and indexed with the trained encoder
// and the pipeline is assembled. This is how a system for an unseen
// validation database comes online. Models that TrainModels fitted on
// this same pool bring its embeddings, and the pool is not encoded
// again.
func (s *System) UseModels(m *Models) error {
	// The write lock is held across the (slow) index build so the pool
	// cannot be swapped between reading it and publishing the pipeline
	// built over it; translations are unaffected — they read the old
	// snapshot lock-free until the new one is published.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	if len(cur.pool) == 0 {
		return fmt.Errorf("core: UseModels before Prepare (empty candidate pool)")
	}
	// The embeddings get their own account against the budget; the pool
	// keeps the reservation Prepare adopted (shrunk on truncation).
	pipeline, pool, poolIdx, vecMem, truncated, err := newPipelineGoverned(
		cur.pool, cur.poolIdx, m, m.poolVecs(cur.pool), s.Opts, s.resources.Load().budget, s.snapMem)
	if err != nil {
		return err
	}
	next := *cur
	next.pool = pool
	next.poolIdx = poolIdx
	next.encoder = m.Encoder
	next.pipeline = pipeline
	next.trained = true
	if truncated {
		next.info.degrade(fmt.Sprintf("snapshot truncated to %d of %d candidates under memory budget",
			len(pool), len(cur.pool)))
		s.memDegradedBuilds.Add(1)
	}
	s.adoptSnapMem(s.snapMem, vecMem)
	s.publish(&next)
	// Same pool generation, new models: flush explicitly.
	s.purgeCaches()
	return nil
}

// Rebuild builds a complete new snapshot off to the side and publishes
// it as the next generation, with no untrained window: build runs on a
// fork of s (see fork), typically setting content, Preparing and
// training, and adopt then publishes the fork's snapshot with one
// pointer store and moves its memory charge onto s. Translations serve
// the old snapshot until then. A failing build, an untrained fork, or
// a snapshot s's budget cannot hold (an error wrapping
// memgov.ErrBudgetExceeded) leaves s's snapshot, generation and charge
// as they were. It returns the new pool generation.
func (s *System) Rebuild(build func(fork *System) error) (uint64, error) {
	f := s.fork()
	if err := build(f); err != nil {
		return 0, err
	}
	gen, _, err := s.adopt(f)
	return gen, err
}

// fork makes the system a snapshot is built on off to the side: s's
// database, options, content, samples, fault injector, linker, exec
// guide and spill directory, and a budget of its own at the effective
// limit of s's (none when s has none). The build's spill and truncation
// decisions are therefore a cold build's at that share, and nothing
// charges s's budget until adopt moves the finished snapshot's bytes.
func (s *System) fork() *System {
	f := New(s.DB, s.Opts)
	res := s.resources.Load()
	budget := res.budget
	if budget != nil {
		budget = memgov.New(budget.Name(), budget.EffectiveLimit())
	}
	f.SetResources(budget, res.spillDir)
	s.writeMu.Lock()
	cur := s.state.Load()
	f.state.Store(&state{linker: cur.linker, guide: cur.guide, inj: cur.inj})
	f.content, f.samples = s.content, s.samples
	s.writeMu.Unlock()
	return f
}

// adopt publishes fork f's complete snapshot (pool, index, prep stats,
// build record, models, linker and exec guide, with f's content and
// samples) as s's next snapshot in one pointer store, and returns its
// generation and publication. First it purges the caches and resizes
// s's pool and embedding reservations to f's accounted bytes, growing
// both before shrinking either, so s holds one snapshot's charge and a
// denial changes nothing. It refuses a system on another database and
// an untrained one. The caller owns f, so f's fields are read without
// its lock.
//
// The generation is f's or, when s or a skipped file has reached it,
// the next past them (see nextGen): a warm start keeps its checkpoint's
// generation, so health endpoints, Result.Generation and the caches
// line up across the restart, and a generation never names two
// snapshots, or a translation on the outgoing one could repopulate the
// caches under it after the purge.
func (s *System) adopt(f *System) (gen, pub uint64, err error) {
	if f == s || f.DB != s.DB {
		return 0, 0, fmt.Errorf("core: adopt of a system that is not a fork of %s", s.DB.Name)
	}
	src := f.state.Load()
	if !src.trained {
		return 0, 0, ErrNotReady
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	// The cached results belong to the outgoing snapshot; dropping them
	// first returns their bytes before the resize asks for room.
	s.purgeCaches()
	budget := s.resources.Load().budget
	poolMem, vecMem := s.snapMem, s.vecMem
	if poolMem == nil {
		poolMem = budget.Hold()
	}
	if vecMem == nil {
		vecMem = budget.Hold()
	}
	dPool, dVec := f.snapMem.Bytes()-poolMem.Bytes(), f.vecMem.Bytes()-vecMem.Bytes()
	err = poolMem.Grow(dPool)
	if err == nil {
		if err = vecMem.Grow(dVec); err != nil {
			poolMem.Shrink(dPool)
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: memory budget cannot hold the rebuilt snapshot: %w", err)
	}
	poolMem.Shrink(-dPool)
	vecMem.Shrink(-dVec)
	s.memDegradedBuilds.Add(f.memDegradedBuilds.Load())

	cur := s.state.Load()
	next := *src
	next.gen = max(src.gen, s.nextGen(cur.gen))
	next.inj = cur.inj
	s.content, s.samples = f.content, f.samples
	s.adoptSnapMem(poolMem, vecMem)
	s.publish(&next)
	// Translations still on the outgoing snapshot may have cached since.
	s.purgeCaches()
	return next.gen, next.pub, nil
}

// Train is the single-database convenience path (used for GEO, whose
// train and test sets share one database): it trains models on this
// system's own pool and examples, then deploys them.
func (s *System) Train(examples []ltr.Example) error {
	m, err := TrainModels([]TrainingSet{{Sys: s, Examples: examples}}, s.Opts)
	if err != nil {
		return err
	}
	return s.UseModels(m)
}

// Candidate is one ranked translation result after value post-processing.
type Candidate struct {
	// SQL is the candidate's query with its placeholders filled. It is
	// shared, not owned: a candidate with nothing to fill, and every
	// candidate of a degraded post-processing stage, is the snapshot's
	// own pool query, which other translations read concurrently. Treat
	// it as read-only and Clone it before editing.
	SQL     *sqlast.Query
	Dialect string
	Score   float64
}

// Translation is the output of Translate.
type Translation struct {
	// Top is the best candidate (nil when the pool is empty).
	Top *Candidate
	// Ranked is the post-processed top-k list, best first.
	Ranked []Candidate
	// Generation is the pool generation of the snapshot that served
	// this translation; every candidate comes from that one snapshot.
	Generation uint64
	// Degraded reports that a non-fatal stage (re-ranking, value
	// post-processing or execution guidance) failed and a documented
	// fallback was used; the result is still usable but of reduced
	// quality.
	Degraded bool
	// Warnings describes each degradation that occurred.
	Warnings []string
	// Verdicts is the execution evidence of the exec-guide stage, one
	// entry per executed candidate indexed into the PRE-reorder ranked
	// list; nil when Options.ExecGuide is off or the stage degraded.
	Verdicts []execguide.Verdict
}

// Translate runs the full online pipeline on an NL query: two-stage
// ranking followed by value post-processing (candidate filtering by
// value-implied columns, then placeholder instantiation).
//
//garlint:allow ctxpass -- compatibility wrapper over TranslateContext
func (s *System) Translate(nl string) (*Translation, error) {
	return s.TranslateContext(context.Background(), nl)
}

// stageCtx derives a stage sub-context capped at frac of the time
// remaining before the parent deadline. With no deadline or a disabled
// fraction, the parent context is returned with a no-op cancel.
func stageCtx(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
	if frac <= 0 || frac >= 1 {
		return ctx, func() {}
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(float64(rem)*frac))
}

// TranslateContext is Translate with cancellation and stage-level fault
// isolation. Each stage runs inside a recover boundary, so a panic in a
// ranking stage surfaces as a *StageError instead of crashing the
// process, and the pipeline degrades gracefully:
//
//   - retrieval failure (or cancellation before/while retrieving) is
//     fatal: there is nothing to fall back to;
//   - re-ranking failure or timeout falls back to the retrieval-order
//     candidates, flagged Degraded; an installed rerank breaker
//     (SetRerankBreaker) that is open skips the stage outright with
//     the same fallback;
//   - value post-processing failure falls back to the ranked candidates
//     with placeholders left masked, flagged Degraded.
//
// When Options.StageBudget is set and the context has a deadline, each
// stage additionally runs under its own slice of the remaining
// deadline, so a pathologically slow stage degrades early instead of
// starving the stages behind it.
//
// TranslateContext is safe to call concurrently, loads the published
// snapshot exactly once, and therefore always sees one consistent
// {pool, index, models} generation even while Prepare/Rebuild
// run concurrently.
func (s *System) TranslateContext(ctx context.Context, nl string) (*Translation, error) {
	st := s.state.Load()
	if !st.trained {
		return nil, fmt.Errorf("core: Translate before Train")
	}
	pipeline, linker, inj := st.pipeline, st.linker, st.inj

	// With a fault injector installed the caches step aside entirely:
	// the harness is probing the live stage boundaries, and a cached
	// answer would mask the injected fault. A context that is already
	// done also bypasses the cache, so cancellation fails with the same
	// stage attribution whether or not the answer happens to be cached.
	useCache := inj == nil && ctx.Err() == nil
	if useCache {
		if cached, ok := s.transCache.Get(st.gen, nl); ok && cached.pub == st.pub {
			return cached.translation(st, nl), nil
		}
	}

	// Stage 1: first-stage retrieval over the candidate pool. Fatal on
	// any failure — every later stage only refines this answer. The
	// question embedding is computed at most once per (generation, NL)
	// pair: a cache hit feeds both retrieval and the re-ranker's
	// similarity feature.
	var qvec vector.Vec
	if useCache {
		qvec, _ = s.embedCache.Get(st.gen, nl)
	}
	var hits []vindex.Hit
	rctx, rcancel := stageCtx(ctx, s.Opts.StageBudget.Retrieval)
	err := runStage(rctx, StageRetrieval, func() error {
		if ferr := inj.Fire(rctx, faults.Retrieval); ferr != nil {
			return ferr
		}
		if qvec == nil {
			qvec = pipeline.Encoder.Encode(nl)
			if useCache {
				s.embedCache.Put(st.gen, nl, qvec)
			}
		}
		var rerr error
		hits, rerr = pipeline.RetrieveVecContext(rctx, qvec, pipeline.K)
		return rerr
	})
	rcancel()
	if err != nil {
		return nil, err
	}

	out := &Translation{Generation: st.gen}
	degrade := func(stage string, err error) {
		out.Degraded = true
		out.Warnings = append(out.Warnings, fmt.Sprintf("%s stage degraded: %v", stage, err))
	}

	// Stage 2: re-ranking. On failure the retrieval order stands. An
	// open circuit breaker skips the stage without paying the failure
	// cost per request.
	var ranked []ltr.Ranked
	br := s.rerankBreaker.Load()
	if br != nil && !br.Allow() {
		ranked = pipeline.FromHits(hits)
		degrade(StageRerank, breaker.ErrOpen)
	} else {
		kctx, kcancel := stageCtx(ctx, s.Opts.StageBudget.Rerank)
		err = runStage(kctx, StageRerank, func() error {
			if ferr := inj.Fire(kctx, faults.Rerank); ferr != nil {
				return ferr
			}
			var rerr error
			ranked, rerr = pipeline.RerankVecContext(kctx, nl, qvec, hits)
			return rerr
		})
		kcancel()
		if br != nil {
			// A client cancellation says nothing about the re-ranker;
			// everything else (errors, panics, timeouts) counts.
			if errors.Is(err, context.Canceled) {
				br.Forgive()
			} else {
				br.Record(err == nil)
			}
		}
		if err != nil {
			ranked = pipeline.FromHits(hits)
			degrade(StageRerank, err)
		}
	}

	// Stage 3: value post-processing (filter by value-implied columns,
	// then instantiate placeholders). On failure the ranked SQL is
	// returned as-is, placeholders still masked. ids holds each
	// processed candidate's pool id, for the translation cache.
	var processed []Candidate
	var ids []int32
	pctx, pcancel := stageCtx(ctx, s.Opts.StageBudget.Postprocess)
	err = runStage(pctx, StagePostprocess, func() error {
		if ferr := inj.Fire(pctx, faults.Postprocess); ferr != nil {
			return ferr
		}
		// The question's literal values, extracted once for the filter
		// and the fill of every candidate.
		vals := linker.Extract(nl)
		// Post-processing 1: drop candidates whose dialect lacks a
		// column implied by a literal value in the NL query. If every
		// candidate would be dropped, keep the original ranking.
		filtered := make([]ltr.Ranked, 0, len(ranked))
		for _, r := range ranked {
			if s.Opts.NoDialect || linker.Mentions(vals, r.Dialect) {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			filtered = ranked
		}
		for _, r := range filtered {
			if cerr := pctx.Err(); cerr != nil {
				return cerr
			}
			// Post-processing 2: instantiate placeholders from the NL.
			processed = append(processed, Candidate{SQL: fillSQL(pipeline, linker, r.ID, r.SQL, vals), Dialect: r.Dialect, Score: r.Score})
			ids = append(ids, int32(r.ID))
		}
		return nil
	})
	pcancel()
	if err != nil {
		processed, ids = processed[:0], ids[:0]
		for _, r := range ranked {
			processed = append(processed, Candidate{SQL: r.SQL, Dialect: r.Dialect, Score: r.Score})
			ids = append(ids, int32(r.ID))
		}
		degrade(StagePostprocess, err)
	}

	// Stage 4: execution-guided reranking (off by default). The top
	// ExecTopK candidates run against the seeded sample instance and
	// candidates with execution evidence against them are demoted; on
	// any stage failure the pre-execution LTR order stands.
	if s.Opts.ExecGuide && st.guide != nil && len(processed) > 0 {
		var verdicts []execguide.Verdict
		ectx, ecancel := stageCtx(ctx, s.Opts.StageBudget.ExecGuide)
		err = runStage(ectx, StageExecGuide, func() error {
			if ferr := inj.Fire(ectx, faults.ExecGuide); ferr != nil {
				return ferr
			}
			queries := make([]*sqlast.Query, len(processed))
			for i := range processed {
				queries[i] = processed[i].SQL
			}
			var gerr error
			verdicts, gerr = st.guide.Inspect(ectx, queries)
			return gerr
		})
		ecancel()
		if err != nil {
			degrade(StageExecGuide, err)
		} else {
			order := execguide.Reorder(len(processed), verdicts)
			reordered := make([]Candidate, 0, len(processed))
			reorderedIDs := make([]int32, 0, len(ids))
			for _, idx := range order {
				reordered = append(reordered, processed[idx])
				reorderedIDs = append(reorderedIDs, ids[idx])
			}
			processed, ids = reordered, reorderedIDs
			out.Verdicts = verdicts
			s.execExecuted.Add(uint64(len(verdicts)))
			for _, v := range verdicts {
				switch {
				case v.Outcome == execguide.Timeout:
					s.execTimeouts.Add(1)
					s.execDemoted.Add(1)
				case v.Outcome == execguide.Error:
					s.execErrors.Add(1)
					s.execDemoted.Add(1)
				case v.Outcome.DemotionClass() > 0:
					s.execDemoted.Add(1)
				}
			}
		}
	}

	out.Ranked = processed
	if len(out.Ranked) > 0 {
		out.Top = &out.Ranked[0]
	}
	// Only clean, fully-processed results are cached: a degraded answer
	// must not outlive the transient failure that produced it.
	if useCache && !out.Degraded {
		c := &cachedTranslation{
			pub:      st.pub,
			ids:      ids,
			scores:   make([]float64, len(processed)),
			verdicts: slices.Clone(out.Verdicts),
		}
		for i := range processed {
			c.scores[i] = processed[i].Score
		}
		s.transCache.Put(st.gen, nl, c)
	}
	return out, nil
}

// cachedTranslation is a clean translation held by reference into the
// snapshot that produced it: the final order of pool ids, their scores
// and the exec-guide verdicts. It retains no SQL: a hit re-fills the
// placeholders from the same snapshot, which reproduces the miss
// exactly because value extraction is deterministic.
type cachedTranslation struct {
	// pub is the publication of the state that produced the entry; a
	// hit is served only from that state.
	pub      uint64
	ids      []int32
	scores   []float64
	verdicts []execguide.Verdict
}

// translation rebuilds the Translation the entry was cached from, on
// the state that produced it.
func (c *cachedTranslation) translation(st *state, nl string) *Translation {
	p, linker := st.pipeline, st.linker
	vals := linker.Extract(nl)
	out := &Translation{
		Generation: st.gen,
		Ranked:     make([]Candidate, len(c.ids)),
		Verdicts:   slices.Clone(c.verdicts),
	}
	for i, id := range c.ids {
		cand := p.Pool[id]
		out.Ranked[i] = Candidate{SQL: fillSQL(p, linker, int(id), cand.SQL, vals), Dialect: cand.Dialect, Score: c.scores[i]}
	}
	if len(out.Ranked) > 0 {
		out.Top = &out.Ranked[0]
	}
	return out
}

// ExecGuideStats is a point-in-time snapshot of the exec-guide stage's
// counters, all zero while Options.ExecGuide is off.
type ExecGuideStats struct {
	// Executed counts candidates run against the sample instance.
	Executed uint64 `json:"executed"`
	// Demoted counts candidates demoted on execution evidence
	// (errors, timeouts and degenerate results).
	Demoted uint64 `json:"demoted"`
	// Errors and Timeouts break the hard demotions down.
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
}

// ExecGuideStats reports the exec-guide counters.
func (s *System) ExecGuideStats() ExecGuideStats {
	return ExecGuideStats{
		Executed: s.execExecuted.Load(),
		Demoted:  s.execDemoted.Load(),
		Errors:   s.execErrors.Load(),
		Timeouts: s.execTimeouts.Load(),
	}
}

// RetrievalContains reports whether the gold query appears in the
// first-stage top-k for the NL query; used for Table 9 error
// attribution. It returns false when the gold is not even in the pool.
func (s *System) RetrievalContains(nl string, gold *sqlast.Query, k int) bool {
	st := s.state.Load()
	if !st.trained {
		return false
	}
	goldIdx := st.poolIdx.Find(s.BindGold(gold))
	if goldIdx < 0 {
		return false
	}
	for _, h := range st.pipeline.Retrieve(nl, k) {
		if h.ID == goldIdx {
			return true
		}
	}
	return false
}

// Pool exposes the candidate pool (read-only use).
func (s *System) Pool() []ltr.Candidate {
	pool, _ := s.snapshot()
	return pool
}

// Builder exposes the dialect builder (used by examples and the eval
// harness to show expressions).
func (s *System) Builder() *dialect.Builder { return s.builder }
