package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/feedback"
	"repro/internal/memgov"
	"repro/internal/norm"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// trainerOpts keeps the trainer suite fast: smaller pool, same forced
// training epochs as trainedSystem.
func trainerOpts() core.Options {
	return core.Options{GeneralizeSize: 120, RetrievalK: 8}
}

func trainerBase() func() (core.TrainingData, error) {
	return func() (core.TrainingData, error) {
		return core.TrainingData{Samples: employeeSamples(), Examples: employeeExamples()}, nil
	}
}

// feedbackLog builds a WAL holding the given (question, SQL) pairs.
func feedbackLog(t *testing.T, pairs [][2]string) *feedback.Log {
	t.Helper()
	l, err := feedback.Open(filepath.Join(t.TempDir(), "feedback"), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for _, p := range pairs {
		if _, err := l.Append(feedback.Record{Question: p[0], SQL: p[1], Source: feedback.SourceChosen}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

var trainerFeedback = [][2]string{
	{"what is the total number of employees", "SELECT COUNT(*) FROM employee"},
	{"show every city with its employee count", "SELECT city, COUNT(*) FROM employee GROUP BY city"},
	{"name the employee with the highest age", "SELECT name FROM employee ORDER BY age DESC LIMIT 1"},
	{"what cities do the employees come from", "SELECT city FROM employee"},
}

// degenerate replaces the trained models with an untrained random
// encoder and no re-ranker: a valid but useless ranker, the
// fault-injected "bad candidate" of the acceptance criteria.
func degenerate(m *core.Models) {
	enc := embed.NewEncoder(embed.Config{Seed: 99})
	enc.FitIDF([]string{"zzz unrelated corpus"})
	m.Encoder = enc
	m.Reranker = nil
}

func TestTrainerPromotesAndRetrains(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback)
	tr := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		// The candidate trains on a superset of the base corpus; allow
		// modest seed jitter but reject real regressions.
		ShadowThreshold: 0.25,
	})

	genBefore := sys.Generation()
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Promotions != 1 || st.Retrains != 1 || st.Failures != 0 {
		t.Fatalf("stats after promote: %+v", st)
	}
	if sys.Generation() <= genBefore {
		t.Fatalf("promotion did not bump the generation: %d -> %d", genBefore, sys.Generation())
	}
	if st.LastShadow == nil || !st.LastShadow.Promoted || st.LastShadow.Evaluated == 0 {
		t.Fatalf("LastShadow after promote: %+v", st.LastShadow)
	}
	if st.TrainedSeq != log.LastSeq() || st.Pending != 0 {
		t.Fatalf("trained seq %d pending %d, want %d/0", st.TrainedSeq, st.Pending, log.LastSeq())
	}
	// The flagship query still ranks first after retraining.
	res, err := sys.Translate("find the name of the employee who got the highest one time bonus")
	if err != nil || res.Top == nil {
		t.Fatalf("translate after promote: %v", err)
	}
	gold := sqlparse.MustParse(
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1")
	if !norm.ExactMatch(res.Top.SQL, gold) {
		t.Errorf("flagship query regressed after promotion: %s", res.Top.SQL)
	}
	// A second Flush with nothing new is a trivial success.
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Retrains != 1 {
		t.Fatalf("empty flush retrained: %+v", st)
	}
}

// TestTrainerPromotionPublishesWholeSnapshot: a promotion that grows
// the pool under a tenant budget publishes the fork's whole snapshot.
// The memory charge, the exec guide's sample instance and the build
// record all equal a cold build of the folded samples; none is left at
// the pre-feedback build's.
func TestTrainerPromotionPublishesWholeSnapshot(t *testing.T) {
	opts := trainerOpts()
	opts.EncoderEpochs, opts.RerankEpochs, opts.Seed = 12, 40, 42
	opts.NoCache, opts.ExecGuide = true, true
	base := employeeSamples()[:4]
	db := schematest.Employee()
	governed := func(samples []*sqlast.Query) *core.System {
		sys := core.New(db, opts)
		sys.SetResources(memgov.New("process", 0).Child("tenant", 64<<20))
		sys.Prepare(samples)
		if err := sys.Train(employeeExamples()); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := governed(base)
	pairs := [][2]string{
		{"which employees live in Lisbon", "SELECT name FROM employee WHERE city = 'Lisbon'"},
		{"how many employees are older than 45", "SELECT COUNT(*) FROM employee WHERE age > 45"},
		{"what is the average bonus", "SELECT AVG(bonus) FROM evaluation"},
		{"how many employees are there", "SELECT COUNT(*) FROM employee"},
		{"who is the oldest employee", "SELECT name FROM employee ORDER BY age DESC LIMIT 1"},
		{"list the cities of employees", "SELECT city FROM employee"},
	}
	folded := append([]*sqlast.Query(nil), base...)
	for _, p := range pairs {
		q := sqlparse.MustParse(p[1])
		if err := db.Bind(q); err != nil {
			t.Fatal(err)
		}
		folded = append(folded, q)
	}
	cold := governed(folded)
	before, beforePrep := sys.MemStats(), sys.PrepStats()
	if before.SnapshotBytes >= cold.MemStats().SnapshotBytes {
		t.Fatalf("folded samples do not grow the snapshot: %d -> %d", before.SnapshotBytes, cold.MemStats().SnapshotBytes)
	}

	tr := core.NewTrainer(sys, feedbackLog(t, pairs), nil, func() (core.TrainingData, error) {
		return core.TrainingData{Samples: base, Examples: employeeExamples()}, nil
	}, core.TrainerConfig{ShadowThreshold: 1})
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Promotions != 1 {
		t.Fatalf("no promotion: %+v", st)
	}
	if !slices.Equal(sys.PoolDialects(), cold.PoolDialects()) {
		t.Fatalf("promoted pool of %d differs from the cold build's %d", sys.PoolSize(), cold.PoolSize())
	}
	got, want := sys.MemStats(), cold.MemStats()
	if got.SnapshotBytes != want.SnapshotBytes || got.Budget.Used != want.Budget.Used {
		t.Errorf("promoted charge: snapshot %d, used %d; cold build of the folded samples: %d, %d",
			got.SnapshotBytes, got.Budget.Used, want.SnapshotBytes, want.Budget.Used)
	}
	if got.Degraded != want.Degraded || got.DegradeReason != want.DegradeReason || sys.PrepStats() != cold.PrepStats() {
		t.Errorf("promoted build record %+v (prep %+v), cold build's %+v (prep %+v)",
			got, sys.PrepStats(), want, cold.PrepStats())
	}
	if sys.PrepStats() == beforePrep {
		t.Errorf("build record still the pre-feedback build's: %+v (prep %+v)", before, beforePrep)
	}
	guide := core.ExecGuide(sys).Instance().Tables
	if !reflect.DeepEqual(guide, core.ExecGuide(cold).Instance().Tables) {
		t.Error("promoted exec guide is not seeded from the folded samples")
	}
	if reflect.DeepEqual(guide, core.ExecGuide(governed(base)).Instance().Tables) {
		t.Error("promoted exec guide still holds the pre-feedback seeds")
	}
	// A later content change reseeds the guide from the adopted samples.
	sys.SetContent(nil)
	cold.SetContent(nil)
	if !reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, core.ExecGuide(cold).Instance().Tables) {
		t.Error("a content change after the promotion reseeded the guide from other samples")
	}
}

func TestTrainerShadowGateRejectsDegenerate(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback)
	tr := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		MutateCandidate: degenerate,
	})

	genBefore := sys.Generation()
	baseline := answers(t, sys)
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.ShadowRejections != 1 || st.Promotions != 0 {
		t.Fatalf("degenerate candidate not rejected: %+v", st)
	}
	if st.LastShadow == nil || st.LastShadow.Promoted || st.LastShadow.Reason == "" {
		t.Fatalf("LastShadow after rejection: %+v", st.LastShadow)
	}
	if st.LastShadow.Candidate >= st.LastShadow.Live {
		t.Fatalf("degenerate candidate did not score worse: %+v", st.LastShadow)
	}
	// The rejection is consumed (no retry storm), and serving is
	// byte-identical to before the cycle.
	if st.Retrains != 1 || st.TrainedSeq != log.LastSeq() {
		t.Fatalf("rejected cycle not consumed: %+v", st)
	}
	if sys.Generation() != genBefore {
		t.Fatalf("rejected candidate changed the generation: %d -> %d", genBefore, sys.Generation())
	}
	if got := answers(t, sys); !sameAnswers(baseline, got) {
		t.Fatal("rejected candidate changed serving answers")
	}
}

func TestTrainerPanicIsolated(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback)
	inj := faults.NewInjector(1)
	inj.Panic(faults.Train, "training exploded")
	tr := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		Backoff:  5 * time.Millisecond,
		Injector: inj,
	})

	genBefore := sys.Generation()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := tr.Flush(ctx)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Flush over a panicking cycle = %v, want contained panic", err)
	}
	st := tr.Stats()
	if st.Failures == 0 || st.LastError == "" {
		t.Fatalf("panic not counted as failure: %+v", st)
	}
	// The process is alive and the old ranker still serves.
	if sys.Generation() != genBefore || !sys.Ready() {
		t.Fatal("panicking cycle disturbed serving")
	}
	if _, terr := sys.Translate("how many employees are there"); terr != nil {
		t.Fatalf("translate after contained panic: %v", terr)
	}

	// With the fault gone (Times exhausted via a fresh injector), the
	// same trainer recovers on the next flush.
	inj2 := faults.NewInjector(1)
	tr2 := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{Injector: inj2, ShadowThreshold: 0.25})
	if err := tr2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tr2.Stats(); st.Retrains != 1 {
		t.Fatalf("recovery flush did not retrain: %+v", st)
	}
}

func TestTrainerGateBudget(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback)

	// A denied budget skips the cycle with an error (retried later).
	denied := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		Gate: func(ctx context.Context) (func(), error) { return nil, errors.New("budget exhausted") },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := denied.Flush(ctx); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("denied gate = %v", err)
	}

	// A granted budget is held for the cycle and released after.
	var mu sync.Mutex
	held, released := 0, 0
	granted := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		ShadowThreshold: 0.25,
		Gate: func(ctx context.Context) (func(), error) {
			mu.Lock()
			held++
			mu.Unlock()
			return func() { mu.Lock(); released++; mu.Unlock() }, nil
		},
	})
	if err := granted.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if held != 1 || released != 1 {
		t.Fatalf("gate held %d released %d, want 1/1", held, released)
	}
}

func TestTrainerStartStopLoop(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback)
	tr := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{
		Interval:        10 * time.Millisecond,
		ShadowThreshold: 0.25,
	})
	tr.Start()
	tr.Start() // idempotent
	tr.Notify()
	deadline := time.Now().Add(30 * time.Second)
	for tr.Stats().Retrains == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop never retrained: %+v", tr.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr.Stop()
	tr.Stop() // idempotent
	if st := tr.Stats(); st.Retrains == 0 || st.State == core.TrainerTraining {
		t.Fatalf("stats after loop: %+v", st)
	}
	// Shutdown after Stop is a trivial flush.
	if err := tr.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// answers snapshots the byte-exact serving output for every fixture
// question.
func answers(t *testing.T, sys *core.System) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, ex := range employeeExamples() {
		tr, err := sys.Translate(ex.NL)
		if err != nil {
			t.Fatalf("translate %q: %v", ex.NL, err)
		}
		if tr.Top == nil {
			out[ex.NL] = ""
			continue
		}
		out[ex.NL] = tr.Top.SQL.String() + "\x00" + tr.Top.Dialect
	}
	return out
}

func sameAnswers(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestTrainerRollback is the acceptance drill: a degenerate ranker is
// let through the gate (threshold wide open, as if misconfigured), the
// post-promotion regression detector sees live answers stop matching
// subsequent feedback, and the system rolls back to the pre-promotion
// checkpointed generation — under -race, with translations hammering
// throughout and byte-identical answers before and after.
func TestTrainerRollbackUnderTraffic(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	log := feedbackLog(t, trainerFeedback)
	tr := core.NewTrainer(sys, log, store, trainerBase(), core.TrainerConfig{
		ShadowThreshold:  10, // wide open: promote anything
		MutateCandidate:  degenerate,
		RegressWindow:    4,
		RegressThreshold: 0.9,
	})

	baseline := answers(t, sys)

	// Serving must be uninterrupted end to end: hammer translations
	// through promotion and rollback.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qs := employeeExamples()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, terr := sys.Translate(qs[(n+i)%len(qs)].NL); terr != nil {
					select {
					case errCh <- terr:
					default:
					}
					return
				}
			}
		}(i)
	}

	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Promotions != 1 {
		t.Fatalf("degenerate candidate was not promoted through the open gate: %+v", st)
	}
	promotedGen := sys.Generation()

	// Subsequent feedback: the degenerate live ranker misses, the
	// window fills, the detector fires.
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	seq := log.LastSeq()
	for tr.Stats().Rollbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("regression detector never fired: %+v", tr.Stats())
		}
		for _, ex := range employeeExamples()[:4] {
			seq++
			tr.ObserveFeedback(ctx, feedback.Record{
				Seq:      seq,
				Question: ex.NL,
				SQL:      ex.Gold.String(),
				Source:   feedback.SourceCorrected,
			})
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	select {
	case terr := <-errCh:
		t.Fatalf("translation failed during promotion/rollback: %v", terr)
	default:
	}

	st = tr.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1 (%+v)", st.Rollbacks, st)
	}
	// Generations stay monotonic (a rollback advances to a fresh
	// generation past the demoted one, so stale cache entries keyed by
	// the promoted generation can never serve again), and the answers
	// are byte-identical to the pre-promotion baseline.
	if sys.Generation() < promotedGen {
		t.Fatalf("generation went backwards: %d < %d", sys.Generation(), promotedGen)
	}
	if got := answers(t, sys); !sameAnswers(baseline, got) {
		for k, v := range got {
			if baseline[k] != v {
				t.Errorf("answer diverged after rollback:\n  q: %s\n  before: %s\n  after:  %s", k, baseline[k], v)
			}
		}
		t.Fatal("rollback did not restore byte-identical answers")
	}
	// Further feedback observes a disarmed detector: no second rollback.
	tr.ObserveFeedback(ctx, feedback.Record{Question: "x", SQL: "SELECT city FROM employee", Source: feedback.SourceCorrected})
	if st := tr.Stats(); st.Rollbacks != 1 {
		t.Fatalf("detector fired while disarmed: %+v", st)
	}
}

// promoteDegenerate runs one cycle of tr, which must promote the
// degenerate candidate through the open gate.
func promoteDegenerate(t *testing.T, tr *core.Trainer) {
	t.Helper()
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Promotions != 1 {
		t.Fatalf("degenerate candidate was not promoted through the open gate: %+v", st)
	}
}

// rollBack feeds the degenerate live ranker's misses to tr's armed
// regression detector until it rolls back, failing on a rollback error.
func rollBack(t *testing.T, tr *core.Trainer, log *feedback.Log) {
	t.Helper()
	seq := log.LastSeq()
	deadline := time.Now().Add(30 * time.Second)
	for tr.Stats().Rollbacks == 0 {
		if st := tr.Stats(); st.LastError != "" {
			t.Fatalf("rollback failed: %s", st.LastError)
		}
		if time.Now().After(deadline) {
			t.Fatalf("regression detector never fired: %+v", tr.Stats())
		}
		for _, ex := range employeeExamples()[:4] {
			seq++
			tr.ObserveFeedback(context.Background(), feedback.Record{
				Seq: seq, Question: ex.NL, SQL: ex.Gold.String(), Source: feedback.SourceCorrected,
			})
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rollbackTrainer is a trainer on sys that promotes the degenerate
// candidate with a rollback point in a fresh store, and rolls back
// after four missed feedback records.
func rollbackTrainer(t *testing.T, sys *core.System, log *feedback.Log) *core.Trainer {
	t.Helper()
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return core.NewTrainer(sys, log, store, trainerBase(), core.TrainerConfig{
		ShadowThreshold:  10,
		MutateCandidate:  degenerate,
		RegressWindow:    4,
		RegressThreshold: 0.9,
	})
}

// TestTrainerRollbackHoldsOneSnapshot: a restore over a serving
// snapshot builds on a fork and adopt moves only the difference onto
// the live budget. Under a budget of one snapshot and ~15 % more, the
// trainer's rollback therefore succeeds with byte-identical answers,
// and so does a restore of the live generation's own checkpoint, which
// advances the generation; after each the budget holds exactly the
// snapshot's charge and never went over its limit.
func TestTrainerRollbackHoldsOneSnapshot(t *testing.T) {
	opts := trainerOpts()
	opts.NoCache = true
	snapBytes := trainedUnder(t, opts, memgov.New("system", 256<<20)).MemStats().SnapshotBytes
	sys := trainedUnder(t, opts, memgov.New("system", snapBytes+snapBytes*15/100))
	oneSnapshot := func(what string) {
		t.Helper()
		ms := sys.MemStats()
		if ms.Degraded || ms.SnapshotBytes != snapBytes || ms.Budget.Used != ms.SnapshotBytes {
			t.Errorf("after %s: snapshot %d (degraded %v), used %d; want both %d",
				what, ms.SnapshotBytes, ms.Degraded, ms.Budget.Used, snapBytes)
		}
		if ms.Budget.Peak > ms.Budget.Limit {
			t.Errorf("after %s: budget peak %d over its limit %d", what, ms.Budget.Peak, ms.Budget.Limit)
		}
	}
	baseline := answers(t, sys)

	log := feedbackLog(t, trainerFeedback)
	tr := rollbackTrainer(t, sys, log)
	promoteDegenerate(t, tr)
	rollBack(t, tr, log)
	if got := answers(t, sys); !sameAnswers(baseline, got) {
		t.Error("rollback did not restore byte-identical answers")
	}
	oneSnapshot("the rollback")

	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	gen := sys.Generation()
	if err := sys.RestoreCheckpoint(decodeExport(t, m, sections)); err != nil {
		t.Fatalf("restoring the live generation's checkpoint: %v", err)
	}
	if got := sys.Generation(); got != gen+1 {
		t.Errorf("restore of the live generation %d published generation %d, want %d", gen, got, gen+1)
	}
	if got := answers(t, sys); !sameAnswers(baseline, got) {
		t.Error("restore of the live checkpoint changed the answers")
	}
	oneSnapshot("the restore")
}

// TestTrainerRollbackRestoresSamplesAndGuide: a rollback republishes
// the samples and exec guide the pre-promotion snapshot served with,
// not the promotion's. The promotion folds a city = 'Lisbon' record,
// which seeds the promoted guide; after the rollback the guide is the
// pre-promotion one again, and a later content change reseeds it from
// the pre-promotion samples. A plain restore then keeps both.
func TestTrainerRollbackRestoresSamplesAndGuide(t *testing.T) {
	opts := trainerOpts()
	opts.ExecGuide = true
	sys := trainedSystem(t, opts)
	content := engine.NewInstance(sys.DB)
	n, s := engine.Num, engine.Str
	content.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
	content.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
	sys.SetContent(content)
	before := core.ExecGuide(sys).Instance().Tables

	log := feedbackLog(t, append([][2]string{
		{"which employees live in Lisbon", "SELECT name FROM employee WHERE city = 'Lisbon'"},
	}, trainerFeedback...))
	tr := rollbackTrainer(t, sys, log)
	promoteDegenerate(t, tr)
	if reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, before) {
		t.Fatal("the promoted exec guide is not seeded from the folded Lisbon record")
	}
	rollBack(t, tr, log)
	if !reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, before) {
		t.Error("rolled-back tenant serves an exec guide other than the pre-promotion one")
	}
	sys.SetContent(content)
	if !reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, before) {
		t.Error("a content change after the rollback reseeded the guide from other samples than the pre-promotion ones")
	}

	// A plain restore keeps the live samples and exec guide.
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RestoreCheckpoint(decodeExport(t, m, sections)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, before) {
		t.Error("a restore replaced the live exec guide")
	}
	sys.SetContent(content)
	if !reflect.DeepEqual(core.ExecGuide(sys).Instance().Tables, before) {
		t.Error("a content change after a restore reseeded the guide from other samples than the live ones")
	}
}

func TestTrainerMinRecords(t *testing.T) {
	sys := trainedSystem(t, trainerOpts())
	log := feedbackLog(t, trainerFeedback[:2])
	tr := core.NewTrainer(sys, log, nil, trainerBase(), core.TrainerConfig{MinRecords: 3})
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Retrains != 0 || st.Pending != 2 {
		t.Fatalf("below-threshold flush retrained: %+v", st)
	}
}
