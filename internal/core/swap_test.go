package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// swapSystem builds a trained system plus the deployed models, so tests
// can rebuild fresh snapshots in.
func swapSystem(t *testing.T, opts core.Options) (*core.System, *core.Models) {
	t.Helper()
	if opts.GeneralizeSize == 0 {
		opts.GeneralizeSize = 200
	}
	if opts.RetrievalK == 0 {
		opts.RetrievalK = 10
	}
	opts.EncoderEpochs = 10
	opts.RerankEpochs = 25
	opts.Seed = 42
	sys := core.New(schematest.Employee(), opts)
	sys.Prepare(employeeSamples())
	models, err := core.TrainModels(
		[]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.UseModels(models); err != nil {
		t.Fatal(err)
	}
	return sys, models
}

// rebuild publishes a snapshot prepared from samples with models
// deployed, built on a fork of sys through Rebuild.
func rebuild(sys *core.System, samples []*sqlast.Query, models *core.Models) (uint64, error) {
	return sys.Rebuild(func(f *core.System) error {
		f.Prepare(samples)
		return f.UseModels(models)
	})
}

func dialectSet(dialects []string) map[string]bool {
	set := make(map[string]bool, len(dialects))
	for _, d := range dialects {
		set[d] = true
	}
	return set
}

// TestSwapTranslateRace is the zero-downtime contract under -race:
// translations running concurrently with repeated pool+model rebuilds must
// never fail, never block, and every result must be served from exactly
// one snapshot — all its candidates belong to a single generation's
// pool, never a mix of old pool and new models.
func TestSwapTranslateRace(t *testing.T) {
	sys, models := swapSystem(t, core.Options{})
	samplesA := employeeSamples()
	samplesB := employeeSamples()[:5]

	// Generalization is seeded, so each sample set maps to one fixed
	// dialect set; generation parity then identifies the serving pool.
	dialA := dialectSet(sys.PoolDialects())                   // generation 1 = set A
	if _, err := rebuild(sys, samplesB, models); err != nil { // generation 2
		t.Fatal(err)
	}
	dialB := dialectSet(sys.PoolDialects())
	if _, err := rebuild(sys, samplesA, models); err != nil { // generation 3
		t.Fatal(err)
	}
	for _, d := range sys.PoolDialects() {
		if !dialA[d] {
			t.Fatalf("generalization not deterministic: re-swapped pool has new dialect %q", d)
		}
	}

	// Writer: 16 more swaps alternating the sets. After swap i the
	// generation is 4+i, so even generations serve set B, odd serve A.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 16; i++ {
			set := samplesB
			if i%2 == 1 {
				set = samplesA
			}
			if _, err := rebuild(sys, set, models); err != nil {
				t.Errorf("swap %d during traffic: %v", i, err)
				return
			}
		}
	}()

	questions := []string{
		"how many employees are there",
		"who is the oldest employee",
		"which employees are older than 30",
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				tr, err := sys.TranslateContext(context.Background(), questions[(r+i)%len(questions)])
				if err != nil {
					t.Errorf("translate during swap failed: %v", err)
					return
				}
				want, label := dialA, "A"
				if tr.Generation%2 == 0 {
					want, label = dialB, "B"
				}
				for _, c := range tr.Ranked {
					if !want[c.Dialect] {
						t.Errorf("generation %d (set %s) result holds candidate from another snapshot: %q",
							tr.Generation, label, c.Dialect)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if got, want := sys.Generation(), uint64(19); got != want {
		t.Errorf("generation after 18 swaps: %d, want %d", got, want)
	}
	if !sys.Ready() {
		t.Error("system not ready after swaps")
	}
}

// TestSwapValidation: a rejected rebuild — the build fails, the fork
// is left untrained, or its pool is empty — must leave the serving
// snapshot untouched.
func TestSwapValidation(t *testing.T) {
	sys, _ := swapSystem(t, core.Options{})
	gen := sys.Generation()
	boom := errors.New("build failed")
	builds := map[string]func(*core.System) error{
		"failing build": func(*core.System) error { return boom },
		"untrained fork": func(f *core.System) error {
			f.Prepare(employeeSamples())
			return nil
		},
		"empty pool": func(f *core.System) error {
			f.Prepare([]*sqlast.Query{sqlparse.MustParse("SELECT nope FROM nowhere")})
			return f.Train(employeeExamples())
		},
	}
	for name, build := range builds {
		if _, err := sys.Rebuild(build); err == nil {
			t.Errorf("%s: Rebuild succeeded", name)
		}
		if sys.Generation() != gen {
			t.Errorf("%s: failed rebuild bumped generation: %d -> %d", name, gen, sys.Generation())
		}
		if !sys.Ready() {
			t.Errorf("%s: failed rebuild un-deployed the system", name)
		}
		if _, err := sys.Translate("how many employees are there"); err != nil {
			t.Errorf("%s: translation after failed rebuild: %v", name, err)
		}
	}
	if _, err := sys.Rebuild(func(*core.System) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("Rebuild error %v does not wrap the build's", err)
	}
}

// TestRerankBreakerTripAndRecover drives the breaker through its full
// cycle inside the pipeline: consecutive re-rank failures trip it, an
// open breaker skips the stage outright (degraded answers with no
// per-request failure cost), and the half-open probe after the cooldown
// closes it again.
func TestRerankBreakerTripAndRecover(t *testing.T) {
	sys, _ := swapSystem(t, core.Options{})
	boom := errors.New("rerank exploded")
	inj := faults.NewInjector(7).
		Inject(faults.Rerank, faults.Plan{Kind: faults.KindError, Err: boom, Times: 3})
	sys.SetFaultInjector(inj)
	br := breaker.New(breaker.Config{
		FailureThreshold: 3,
		Cooldown:         30 * time.Millisecond,
		SuccessThreshold: 1,
	})
	sys.SetRerankBreaker(br)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		tr, err := sys.TranslateContext(ctx, "how many employees are there")
		if err != nil {
			t.Fatalf("failing re-rank must degrade, not fail (call %d): %v", i, err)
		}
		if !tr.Degraded {
			t.Fatalf("call %d: not degraded", i)
		}
	}
	if st := br.State(); st != breaker.Open {
		t.Fatalf("breaker after 3 consecutive failures: %v, want open", st)
	}

	// Open: the stage is skipped, not retried — the injector must see
	// no further re-rank calls while answers keep flowing.
	calls := inj.Calls(faults.Rerank)
	tr, err := sys.TranslateContext(ctx, "who is the oldest employee")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Degraded {
		t.Fatal("open breaker must serve degraded answers")
	}
	if got := inj.Calls(faults.Rerank); got != calls {
		t.Fatalf("open breaker still invoked re-ranking: %d calls, was %d", got, calls)
	}

	// After the cooldown the half-open probe reaches the (now healthy)
	// stage and closes the circuit.
	time.Sleep(60 * time.Millisecond)
	tr, err = sys.TranslateContext(ctx, "how many employees are there")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degraded {
		t.Fatalf("recovered translation still degraded: %v", tr.Warnings)
	}
	if st := br.State(); st != breaker.Closed {
		t.Fatalf("breaker after successful probe: %v, want closed", st)
	}
	snap := br.Snapshot()
	if snap.Trips != 1 {
		t.Errorf("trips: %d, want 1", snap.Trips)
	}
}

// TestStageBudgetBoundsSlowRerank: with a per-stage budget, a
// pathologically slow re-rank degrades early instead of eating the
// whole request deadline.
func TestStageBudgetBoundsSlowRerank(t *testing.T) {
	sys, _ := swapSystem(t, core.Options{
		StageBudget: core.StageBudget{Rerank: 0.2},
	})
	inj := faults.NewInjector(1).Delay(faults.Rerank, 10*time.Second)
	sys.SetFaultInjector(inj)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	tr, err := sys.TranslateContext(ctx, "how many employees are there")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("slow re-rank must degrade, not fail: %v", err)
	}
	if !tr.Degraded {
		t.Fatal("slow re-rank not flagged degraded")
	}
	if tr.Top == nil {
		t.Fatal("degraded translation has no result")
	}
	// The stage budget is 20% of the 500ms deadline; well before the
	// deadline itself the request must already be answered.
	if elapsed >= 400*time.Millisecond {
		t.Errorf("stage budget did not bound the slow stage: took %v", elapsed)
	}
}

// TestPrepareDuringTraffic: a bare Prepare (no models yet) un-publishes
// the snapshot; in-flight translations that loaded the old snapshot
// still complete, and new ones get the documented lifecycle error
// rather than a crash or a torn state.
func TestPrepareDuringTraffic(t *testing.T) {
	sys, models := swapSystem(t, core.Options{})
	if !sys.Ready() {
		t.Fatal("system not ready")
	}
	sys.Prepare(employeeSamples())
	if sys.Ready() {
		t.Fatal("Prepare must un-publish the trained snapshot")
	}
	if _, err := sys.TranslateContext(context.Background(), "how many employees are there"); err == nil {
		t.Fatal("translate on unpublished snapshot must error")
	}
	if err := sys.UseModels(models); err != nil {
		t.Fatal(err)
	}
	if !sys.Ready() {
		t.Fatal("UseModels must re-publish")
	}
	if _, err := sys.Translate("how many employees are there"); err != nil {
		t.Fatal(err)
	}
}
