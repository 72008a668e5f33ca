package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/feedback"
	"repro/internal/ltr"
	"repro/internal/norm"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// TrainingData is the base corpus a retraining cycle starts from — the
// committed samples and benchmark examples the system was originally
// trained on. Accepted feedback pairs are folded on top of it.
type TrainingData struct {
	Samples  []*sqlast.Query
	Examples []ltr.Example
}

// TrainerConfig tunes the background trainer; the zero value gives
// sensible serving defaults.
type TrainerConfig struct {
	// Interval is the quiet window after a feedback notification before
	// a retraining cycle starts, so a burst of feedback produces one
	// retrain instead of several. Default 30s.
	Interval time.Duration
	// MinRecords is how many not-yet-trained-on records it takes to
	// start a cycle. Default 1.
	MinRecords int
	// Backoff and MaxBackoff bound the jittered exponential delay
	// between retries of a failed cycle. Defaults 2s and 5m.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// ShadowThreshold is how much worse (in top-1 exact-match rate over
	// the shadow evaluation set) the candidate ranker may score and
	// still be promoted. 0 — the default — means "no worse than live";
	// negative values demand strict improvement.
	ShadowThreshold float64
	// ShadowHoldout caps how many of the newest feedback pairs join the
	// base examples in the shadow evaluation set. Default 64.
	ShadowHoldout int
	// RegressWindow and RegressThreshold arm the post-promotion
	// regression detector: over a sliding window of RegressWindow
	// subsequent feedback records, a live top-1 match rate below
	// RegressThreshold rolls the system back to the pre-promotion
	// checkpoint. Defaults 8 and 0.5; a negative threshold disables
	// the detector.
	RegressWindow    int
	RegressThreshold float64
	// Logf, when set, receives one line per cycle outcome. Default:
	// silent.
	Logf func(format string, args ...any)
	// Gate, when set, bounds fleet-wide training concurrency: a cycle
	// calls it before any work and holds the returned release until the
	// cycle ends. An error skips the cycle (it retries with backoff).
	Gate func(ctx context.Context) (release func(), err error)
	// MutateCandidate, when set, edits the freshly trained candidate
	// models before shadow scoring. Fault-injection hook: tests use it
	// to produce a degenerate ranker the gate must reject.
	MutateCandidate func(m *Models)
	// Injector, when set, fires at the faults.Train point of every
	// cycle (after the gate, before any training work).
	Injector *faults.Injector
}

func (cfg *TrainerConfig) fill() {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.MinRecords < 1 {
		cfg.MinRecords = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Minute
	}
	if cfg.ShadowHoldout <= 0 {
		cfg.ShadowHoldout = 64
	}
	if cfg.RegressWindow <= 0 {
		cfg.RegressWindow = 8
	}
	if cfg.RegressThreshold == 0 {
		cfg.RegressThreshold = 0.5
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Trainer states, as reported by TrainerStats.State.
const (
	TrainerIdle       = "idle"
	TrainerTraining   = "training"
	TrainerBackingOff = "backing-off"
)

// ShadowVerdict records one shadow-scoring decision: the live and
// candidate rankers' top-1 exact-match rates over the shadow set, and
// whether the candidate was promoted.
type ShadowVerdict struct {
	Live      float64 `json:"live"`
	Candidate float64 `json:"candidate"`
	Evaluated int     `json:"evaluated"`
	Promoted  bool    `json:"promoted"`
	// Reason is set when the candidate was rejected.
	Reason string `json:"reason,omitempty"`
	// Generation is the pool generation the promotion published.
	Generation uint64 `json:"generation,omitempty"`
	Unix       int64  `json:"unix"`
}

// TrainerStats is a point-in-time snapshot of the trainer's counters,
// surfaced by serving health endpoints.
type TrainerStats struct {
	// State is training while a cycle runs, backing-off while a failed
	// cycle waits to retry, and idle otherwise — after Stop included.
	State string `json:"state"`
	// Retrains counts completed cycles (promoted or shadow-rejected);
	// Failures counts cycles that errored or panicked (each retried
	// with backoff).
	Retrains uint64 `json:"retrains"`
	Failures uint64 `json:"failures"`
	// Promotions and ShadowRejections split completed cycles by the
	// gate's verdict; Rollbacks counts post-promotion regressions that
	// restored the prior generation.
	Promotions       uint64 `json:"promotions"`
	ShadowRejections uint64 `json:"shadow_rejections"`
	Rollbacks        uint64 `json:"rollbacks"`
	// TrainedSeq is the newest feedback sequence number folded into a
	// completed cycle; Pending counts newer records awaiting one.
	TrainedSeq uint64 `json:"trained_seq"`
	Pending    int    `json:"pending"`
	// LastError describes the most recent failure, cleared by the next
	// completed cycle.
	LastError string `json:"last_error,omitempty"`
	// LastShadow is the most recent shadow-scoring verdict.
	LastShadow *ShadowVerdict `json:"last_shadow,omitempty"`
}

// regressState is the armed post-promotion regression detector: a
// sliding window of live top-1 hits over subsequent feedback, plus the
// checkpointed generation to roll back to and the samples and exec
// guide it served with.
type regressState struct {
	armed   bool
	baseGen uint64
	prior   guideState
	window  []bool
	hits    int
}

// Trainer is the background retraining loop of the online feedback
// system: it replays the feedback WAL, folds accepted pairs into the
// base corpus, trains a candidate ranker entirely off the serving path
// on a fork of the live system, shadow-scores it against the live
// ranker, and promotes it only if it is no worse beyond the configured
// threshold — after making sure the pre-promotion state is
// checkpointed so the post-promotion regression detector can roll
// back. A promotion publishes the fork's whole snapshot: pool, models,
// build record, samples, exec guide and memory charge; a rollback
// publishes the checkpointed pool and models with the pre-promotion
// samples and exec guide. Cycles are
// panic-isolated: a crashing retrain degrades to "keep serving the old
// ranker", never to a dead process.
type Trainer struct {
	sys   *System
	log   *feedback.Log
	store *checkpoint.Store // nil disables rollback arming
	base  func() (TrainingData, error)
	cfg   TrainerConfig
	w     *worker

	// trainMu serializes cycles (and rollbacks) between the background
	// loop and Flush, so a shutdown flush cannot interleave with a
	// retry and a rollback cannot interleave with a promotion.
	trainMu sync.Mutex

	mu    sync.Mutex
	stats TrainerStats
	reg   regressState
}

// NewTrainer couples a serving system with its feedback log, base
// corpus and (optionally nil) checkpoint store. Call Start to begin
// background cycles; Flush works with or without Start.
func NewTrainer(sys *System, log *feedback.Log, store *checkpoint.Store, base func() (TrainingData, error), cfg TrainerConfig) *Trainer {
	cfg.fill()
	t := &Trainer{sys: sys, log: log, store: store, base: base, cfg: cfg}
	t.stats.State = TrainerIdle
	logRetry := func(err error, backoff time.Duration) {
		cfg.Logf("trainer: cycle failed (retrying in ~%s): %v", backoff, err)
	}
	t.w = newWorker(sys.Opts.Seed+0x6662, cfg.Interval, cfg.Backoff, cfg.MaxBackoff, t.retrainOnce, logRetry)
	return t
}

// Notify marks the feedback log dirty and wakes the trainer. It never
// blocks, so the feedback endpoint can call it inline.
func (t *Trainer) Notify() { t.w.Notify() }

// Stats returns a snapshot of the trainer's counters.
func (t *Trainer) Stats() TrainerStats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	if st.State == TrainerIdle && t.w.backingOff() {
		st.State = TrainerBackingOff
	}
	return st
}

// Start launches the background training loop. A second Start is a
// no-op. A stopped trainer may be started again (an aborted tenant
// eviction does exactly that).
func (t *Trainer) Start() { t.w.Start() }

// Stop halts the background loop, waiting for an in-progress cycle to
// finish. Feedback already on disk is not lost: it trains on the next
// Start (or in another process — the WAL is the source of truth).
func (t *Trainer) Stop() { t.w.Stop() }

// Shutdown stops the background loop and synchronously runs one final
// cycle over any pending feedback, bounded by ctx — the graceful-
// shutdown sequence in one call. Pending feedback that does not make
// the window is not lost: the WAL is the source of truth and the next
// process trains on it.
func (t *Trainer) Shutdown(ctx context.Context) error {
	t.Stop()
	return t.Flush(ctx)
}

// Flush synchronously runs one retraining cycle if enough feedback is
// pending, retrying with backoff until it completes or ctx ends. A log
// with nothing new trains trivially.
func (t *Trainer) Flush(ctx context.Context) error { return t.w.Flush(ctx) }

func (t *Trainer) setState(state string) {
	t.mu.Lock()
	t.stats.State = state
	t.mu.Unlock()
}

// retrainOnce replays the log and, if enough new feedback is pending,
// runs one panic-isolated cycle. Serialized against concurrent Flush
// and background cycles and rollbacks.
func (t *Trainer) retrainOnce(ctx context.Context) error {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()

	records, err := t.log.Records()
	if err != nil {
		t.mu.Lock()
		t.stats.Failures++
		t.stats.LastError = err.Error()
		t.mu.Unlock()
		return err
	}
	t.mu.Lock()
	trained := t.stats.TrainedSeq
	pending := 0
	for _, rec := range records {
		if rec.Seq > trained {
			pending++
		}
	}
	t.stats.Pending = pending
	t.mu.Unlock()
	if pending < t.cfg.MinRecords {
		return nil
	}

	t.setState(TrainerTraining)
	err = t.cycle(ctx, records)
	t.setState(TrainerIdle)

	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.stats.Failures++
		t.stats.LastError = err.Error()
		return err
	}
	t.stats.Retrains++
	t.stats.LastError = ""
	if n := len(records); n > 0 && records[n-1].Seq > t.stats.TrainedSeq {
		t.stats.TrainedSeq = records[n-1].Seq
	}
	t.stats.Pending = 0
	return nil
}

// cycle is one complete retraining attempt: gate, fold, train on a
// fork of the live system, shadow-score, and promote or reject. Any
// panic in here — a training crash on hostile feedback, a bug in the
// fold — is converted to an error: the serving snapshot is untouched
// until the final promotion step, which publishes atomically.
func (t *Trainer) cycle(ctx context.Context, records []feedback.Record) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: training cycle panic: %v", r)
		}
	}()
	if t.cfg.Gate != nil {
		release, gerr := t.cfg.Gate(ctx)
		if gerr != nil {
			return fmt.Errorf("core: training budget: %w", gerr)
		}
		defer release()
	}
	if ferr := t.cfg.Injector.Fire(ctx, faults.Train); ferr != nil {
		return ferr
	}

	base, err := t.base()
	if err != nil {
		return fmt.Errorf("core: loading base training data: %w", err)
	}
	samples, examples, pairs := foldFeedback(t.sys, base, records)
	if len(samples) == 0 {
		return fmt.Errorf("core: retraining with no samples")
	}

	// Train the candidate entirely off the serving path: a fork of the
	// live system (same database, content and budget limit) builds its
	// own pool and models. The live snapshot keeps serving untouched
	// throughout.
	scratch := t.sys.fork()
	// A checkpoint stores neither the live samples nor the (immutable)
	// exec guide, so the rollback point keeps the ones the fork starts on.
	prior := guideState{samples: scratch.samples, guide: scratch.state.Load().guide}
	scratch.Prepare(samples)
	models, terr := TrainModels([]TrainingSet{{Sys: scratch, Examples: examples}}, t.sys.Opts)
	if terr != nil {
		return terr
	}
	if t.cfg.MutateCandidate != nil {
		t.cfg.MutateCandidate(models)
	}
	if uerr := scratch.UseModels(models); uerr != nil {
		return uerr
	}

	// Shadow scoring: A/B the live and candidate rankers on the base
	// examples plus a holdout of the newest feedback.
	evalSet := shadowEvalSet(base.Examples, pairs, t.cfg.ShadowHoldout)
	verdict := ShadowVerdict{
		Live:      scoreTop1(ctx, t.sys, evalSet),
		Candidate: scoreTop1(ctx, scratch, evalSet),
		Evaluated: len(evalSet),
		Unix:      time.Now().Unix(),
	}
	if verdict.Candidate < verdict.Live-t.cfg.ShadowThreshold {
		verdict.Reason = fmt.Sprintf("candidate top-1 %.3f vs live %.3f (threshold %.3f)",
			verdict.Candidate, verdict.Live, t.cfg.ShadowThreshold)
		t.mu.Lock()
		t.stats.ShadowRejections++
		t.stats.LastShadow = &verdict
		t.mu.Unlock()
		t.cfg.Logf("trainer: shadow gate rejected candidate: %s", verdict.Reason)
		return nil
	}

	// Rollback point: before promoting, make sure the pre-promotion
	// generation is durable. Promotion without a rollback point is
	// refused when a store is configured — safety beats freshness.
	var baseGen uint64
	canRollback := false
	if t.store != nil && t.cfg.RegressThreshold > 0 {
		m, sections, xerr := t.sys.ExportCheckpoint()
		switch {
		case xerr == nil:
			baseGen = m.Generation
			if _, rerr := t.store.ReadGeneration(baseGen); rerr != nil {
				if werr := t.store.Write(m, sections); werr != nil {
					return fmt.Errorf("core: checkpointing rollback point: %w", werr)
				}
			}
			canRollback = true
		case errors.Is(xerr, ErrNotReady):
			// Nothing to roll back to; promote unarmed.
		default:
			return xerr
		}
	}

	gen, _, aerr := t.sys.adopt(scratch)
	if aerr != nil {
		return aerr
	}
	verdict.Promoted = true
	verdict.Generation = gen
	t.mu.Lock()
	t.stats.Promotions++
	t.stats.LastShadow = &verdict
	t.reg = regressState{armed: canRollback, baseGen: baseGen, prior: prior}
	t.mu.Unlock()
	t.cfg.Logf("trainer: promoted generation %d (candidate top-1 %.3f vs live %.3f over %d queries, %d feedback pairs)",
		gen, verdict.Candidate, verdict.Live, verdict.Evaluated, len(pairs))
	return nil
}

// foldFeedback merges the accepted feedback pairs into the base
// corpus, deduplicating samples by bound canonical SQL and examples by
// (question, bound canonical SQL) — so replaying the same log twice
// yields an identical sample set. Keys are computed through BindGold
// because binding qualifies names: an unbound base sample and its
// bound feedback twin must collide. It returns the merged samples, the
// merged examples, and the feedback-only pairs in log order.
func foldFeedback(sys *System, base TrainingData, records []feedback.Record) ([]*sqlast.Query, []ltr.Example, []ltr.Example) {
	samples := append([]*sqlast.Query(nil), base.Samples...)
	seenSQL := make(map[string]bool, len(samples))
	for _, q := range samples {
		seenSQL[sys.BindGold(q).String()] = true
	}
	examples := append([]ltr.Example(nil), base.Examples...)
	seenEx := make(map[string]bool, len(examples))
	for _, ex := range examples {
		if ex.Gold != nil {
			seenEx[ex.NL+"\x00"+sys.BindGold(ex.Gold).String()] = true
		}
	}
	var pairs []ltr.Example
	for _, rec := range records {
		q, err := sqlparse.Parse(rec.SQL)
		if err != nil {
			continue // validated at accept time; a WAL from elsewhere may differ
		}
		if err := sys.DB.Bind(q); err != nil {
			continue
		}
		printed := q.String()
		if !seenSQL[printed] {
			seenSQL[printed] = true
			samples = append(samples, q)
		}
		key := rec.Question + "\x00" + printed
		if !seenEx[key] {
			seenEx[key] = true
			ex := ltr.Example{NL: rec.Question, Gold: q}
			examples = append(examples, ex)
			pairs = append(pairs, ex)
		}
	}
	return samples, examples, pairs
}

// shadowEvalSet is the held-out replay: every base example plus the
// newest (at most holdout) feedback pairs.
func shadowEvalSet(baseEx, pairs []ltr.Example, holdout int) []ltr.Example {
	if len(pairs) > holdout {
		pairs = pairs[len(pairs)-holdout:]
	}
	out := make([]ltr.Example, 0, len(baseEx)+len(pairs))
	out = append(out, baseEx...)
	return append(out, pairs...)
}

// scoreTop1 is the shadow scorer: the fraction of examples whose top-1
// translation exactly matches the gold under SPIDER normalization.
func scoreTop1(ctx context.Context, sys *System, examples []ltr.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, ex := range examples {
		tr, err := sys.TranslateTopContext(ctx, ex.NL, 1)
		if err != nil || tr.Top == nil {
			continue
		}
		if norm.ExactMatch(tr.Top.SQL, sys.BindGold(ex.Gold)) {
			hits++
		}
	}
	return float64(hits) / float64(len(examples))
}

// ObserveFeedback feeds one accepted record to the post-promotion
// regression detector. While armed (after a promotion, until the
// window settles or a rollback fires), the live system translates the
// record's question and the top-1 hit/miss against the endorsed SQL
// slides through the window; a full window below the regression
// threshold triggers an automatic rollback to the pre-promotion
// checkpoint. Disarmed, it is a no-op — the cost is only paid in the
// probation window right after a promotion.
//
//garlint:allow goexit -- the rollback goroutine is deliberately detached: it must not block (or die with) the request that revealed the regression; it is serialized by trainMu, panic-isolated, bounded by one checkpoint read+restore, and observable via Stats().Rollbacks
func (t *Trainer) ObserveFeedback(ctx context.Context, rec feedback.Record) {
	t.mu.Lock()
	armed := t.reg.armed
	t.mu.Unlock()
	if !armed {
		return
	}
	gold, err := sqlparse.Parse(rec.SQL)
	if err != nil {
		return
	}
	match := false
	if tr, terr := t.sys.TranslateTopContext(ctx, rec.Question, 1); terr == nil && tr.Top != nil {
		match = norm.ExactMatch(tr.Top.SQL, t.sys.BindGold(gold))
	}

	t.mu.Lock()
	if !t.reg.armed { // disarmed while we were translating
		t.mu.Unlock()
		return
	}
	t.reg.window = append(t.reg.window, match)
	if match {
		t.reg.hits++
	}
	if len(t.reg.window) > t.cfg.RegressWindow {
		if t.reg.window[0] {
			t.reg.hits--
		}
		t.reg.window = t.reg.window[1:]
	}
	full := len(t.reg.window) >= t.cfg.RegressWindow
	rate := float64(t.reg.hits) / float64(len(t.reg.window))
	baseGen, prior := t.reg.baseGen, t.reg.prior
	trigger := full && rate < t.cfg.RegressThreshold
	if trigger {
		t.reg = regressState{} // disarm before the rollback runs
	}
	t.mu.Unlock()

	if trigger {
		go t.rollback(baseGen, prior, rate)
	}
}

// rollback restores the checkpointed pre-promotion generation with the
// samples and exec guide it served with. Serving is uninterrupted:
// translations keep reading the demoted snapshot until the restore
// publishes.
func (t *Trainer) rollback(gen uint64, prior guideState, rate float64) {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	err := t.restore(gen, &prior)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.stats.LastError = err.Error()
		t.cfg.Logf("trainer: rollback to generation %d failed: %v", gen, err)
		return
	}
	t.stats.Rollbacks++
	t.cfg.Logf("trainer: post-promotion regression (window top-1 %.2f): rolled back to generation %d", rate, gen)
}

// restore reads and re-publishes one checkpointed generation with
// prior's samples and exec guide, panic-isolated like every other
// background path of the trainer.
func (t *Trainer) restore(gen uint64, prior *guideState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: rollback panic: %v", r)
		}
	}()
	ck, err := t.store.ReadGeneration(gen)
	if err != nil {
		return err
	}
	_, err = t.sys.restoreCheckpoint(ck, prior)
	return err
}
