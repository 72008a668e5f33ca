package core_test

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/schema/schematest"
)

// governedOpts is the shared shape of the resource-governed test
// systems; governed puts one under a budget.
func governedOpts() core.Options {
	return core.Options{
		GeneralizeSize: 300,
		RetrievalK:     10,
		EncoderEpochs:  12,
		RerankEpochs:   40,
		Seed:           42,
		NoCache:        true,
	}
}

// governed installs a memory budget of limit bytes on sys, the way the
// fleet installs a tenant's share, and returns sys.
func governed(sys *core.System, limit int64) *core.System {
	sys.SetResources(memgov.New("system", limit))
	return sys
}

// TestParallelTranslateDeterminismGoverned pins that memory governance
// is accounting, never a quality decision: a system built under a
// roomy budget must produce byte-identical translations — same order,
// same bit-exact scores — as an unbudgeted one, including under
// concurrent load on eight workers. Runs in the stress target under
// the race detector.
func TestParallelTranslateDeterminismGoverned(t *testing.T) {
	plainOpts := governedOpts()
	plainOpts.Workers = 1
	plain := core.New(schematest.Employee(), plainOpts)
	plain.Prepare(employeeSamples())
	if err := plain.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}

	govOpts := governedOpts()
	govOpts.Workers = 8
	gov := governed(core.New(schematest.Employee(), govOpts), 256<<20)
	gov.Prepare(employeeSamples())
	if err := gov.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}

	// The premise must hold: the governed build was charged to its
	// budget, cleanly (no truncation, no degradation).
	ms := gov.MemStats()
	if ms.Budget == nil || ms.Budget.Used <= 0 || ms.Budget.Used != ms.SnapshotBytes {
		t.Fatalf("governed build not charged to its budget: %+v", ms)
	}
	if ms.Degraded {
		t.Fatalf("roomy budget degraded: %q", ms.DegradeReason)
	}
	if gov.PoolSize() != plain.PoolSize() {
		t.Fatalf("pool size diverged: governed %d, unbudgeted %d", gov.PoolSize(), plain.PoolSize())
	}

	questions := []string{
		"find the name of the employee who got the highest one time bonus",
		"which employees are older than 30",
		"how many employees live in each city",
		"what is the average bonus",
		"which shop has the most products",
	}
	want := make(map[string]string, len(questions))
	for _, q := range questions {
		tr, err := plain.Translate(q)
		if err != nil {
			t.Fatalf("unbudgeted translate %q: %v", q, err)
		}
		want[q] = renderTranslation(tr)
	}
	for _, q := range questions {
		tr, err := gov.Translate(q)
		if err != nil {
			t.Fatalf("governed translate %q: %v", q, err)
		}
		if got := renderTranslation(tr); got != want[q] {
			t.Fatalf("governed output diverged for %q:\n--- unbudgeted ---\n%s\n--- governed ---\n%s", q, want[q], got)
		}
	}

	// Under contention: the governed system hammered from eight
	// goroutines must keep matching the unbudgeted reference exactly.
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := questions[(g+r)%len(questions)]
				tr, err := gov.Translate(q)
				if err != nil {
					errs <- err
					return
				}
				if got := renderTranslation(tr); got != want[q] {
					errs <- errDiverged{q: q}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBuildPeakIsSnapshot pins what makes a RAM record buffer enough: a
// governed cold build never charges its budget more than the snapshot
// it publishes. The stream phase (search frontier plus printed records)
// and materialization (records plus parsed pool) each peak below the
// published pool, embeddings and feature table, so any budget that
// holds the snapshot holds the build, and one that denies a record
// could not have published the whole pool anyway.
func TestBuildPeakIsSnapshot(t *testing.T) {
	check := func(t *testing.T, sys *core.System, build func()) {
		sys.SetResources(memgov.New("system", 0))
		build()
		ms := sys.MemStats()
		if ms.Degraded {
			t.Fatalf("unlimited budget degraded: %q", ms.DegradeReason)
		}
		if ms.Budget.Peak != ms.SnapshotBytes || ms.Budget.Used != ms.SnapshotBytes {
			t.Errorf("budget peak %d, used %d; want both the snapshot's %d", ms.Budget.Peak, ms.Budget.Used, ms.SnapshotBytes)
		}
		t.Logf("pool %d, snapshot %d B, peak %d B", sys.PoolSize(), ms.SnapshotBytes, ms.Budget.Peak)
	}
	t.Run("employee", func(t *testing.T) {
		sys := core.New(schematest.Employee(), governedOpts())
		check(t, sys, func() {
			sys.Prepare(employeeSamples())
			if err := sys.Train(employeeExamples()); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("spider", func(t *testing.T) {
		if testing.Short() {
			t.Skip("builds a pool of ~2,000 candidates")
		}
		// fleet_churn's first tenant (perfbench): its gold queries as
		// samples, its first 60 pairs as training examples.
		bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, TrainPerDB: 1161, ValDBs: 1, ValPerDB: 1, Seed: 1})
		db := datasets.DBNames(bench.Train)[0]
		bundle := bench.Bundle(db)
		var examples []ltr.Example
		for _, it := range bench.Train[:60] {
			examples = append(examples, ltr.Example{NL: it.NL, Gold: it.Gold})
		}
		opts := core.Options{GeneralizeSize: 2000, RetrievalK: 100, Seed: 1, EncoderEpochs: 1, RerankEpochs: 1, NoCache: true}
		sys := core.New(bundle.Schema, opts)
		sys.SetContent(bundle.Content)
		check(t, sys, func() {
			sys.Prepare(datasets.GoldQueries(bench.Train, db))
			if err := sys.Train(examples); err != nil {
				t.Fatal(err)
			}
		})
		if sys.PoolSize() < 1900 {
			t.Fatalf("pool of %d candidates; the check wants the tenant's ~1,965", sys.PoolSize())
		}
	})
}

// TestSetResourcesLifecycle pins the fleet-shaped lifecycle: a budget
// installed after construction via SetResources governs the next build
// (snapshot and cache both accounted), and ReleaseMemory — the
// eviction path — returns every byte, including cache reservations.
func TestSetResourcesLifecycle(t *testing.T) {
	opts := governedOpts()
	opts.NoCache = false
	sys := core.New(schematest.Employee(), opts)

	budget := memgov.New("tenant", 64<<20)
	sys.SetResources(budget)
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	ms := sys.MemStats()
	if ms.Budget == nil || ms.Budget.Used <= 0 || ms.SnapshotBytes <= 0 {
		t.Fatalf("installed budget not charged: %+v", ms)
	}
	// A translation populates the governed cache on top of the snapshot.
	if _, err := sys.Translate("how many employees are there"); err != nil {
		t.Fatal(err)
	}
	if budget.Used() <= ms.SnapshotBytes {
		t.Errorf("cache unaccounted: used %d, snapshot alone %d", budget.Used(), ms.SnapshotBytes)
	}

	sys.ReleaseMemory()
	if used := budget.Used(); used != 0 {
		t.Errorf("ReleaseMemory left %d bytes charged", used)
	}
}

// TestTightBudgetShedsPool pins the last rung before failure: a share
// so small the pool alone fills it forces the pipeline to shed
// candidates until the snapshot plus its embeddings fit — a degraded,
// strictly smaller, still-servable system rather than a build error.
func TestTightBudgetShedsPool(t *testing.T) {
	sys := governed(core.New(schematest.Employee(), governedOpts()), 10<<10)
	sys.Prepare(employeeSamples())

	ms := sys.MemStats()
	if !ms.Degraded {
		t.Fatalf("10KiB budget not degraded: %+v", ms)
	}
	if sys.PoolSize() == 0 {
		t.Fatal("shedding emptied the pool")
	}
	if ms.Budget.Used > ms.Budget.Limit {
		t.Errorf("budget overrun: %+v", ms.Budget)
	}
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	tr, err := sys.Translate("how many employees are there")
	if err != nil || len(tr.Ranked) == 0 {
		t.Fatalf("shed system cannot translate: %v", err)
	}

	// A reload of the same samples builds on a fork at the same share:
	// it sheds exactly as the cold build did, and the live system counts
	// the fork's degraded build.
	cold, builds := sys.PoolDialects(), sys.MemStats().DegradedBuilds
	if _, err := sys.Rebuild(func(f *core.System) error {
		f.Prepare(employeeSamples())
		return f.Train(employeeExamples())
	}); err != nil {
		t.Fatal(err)
	}
	ms = sys.MemStats()
	if !ms.Degraded || ms.DegradedBuilds <= builds || !slices.Equal(sys.PoolDialects(), cold) {
		t.Errorf("shed reload: degraded %v, degraded builds %d -> %d, pool %d vs cold %d",
			ms.Degraded, builds, ms.DegradedBuilds, sys.PoolSize(), len(cold))
	}
	if ms.Budget.Used > ms.Budget.Limit {
		t.Errorf("budget overrun after the reload: %+v", ms.Budget)
	}
}

// TestBudgetPressureDegrades pins the degradation contract: a budget
// that cannot hold the whole pool truncates it at the denial point —
// flagged Degraded with the drop count in the reason — instead of
// failing the build, and the accountant never exceeds its limit.
func TestBudgetPressureDegrades(t *testing.T) {
	sys := governed(core.New(schematest.Employee(), governedOpts()), 32<<10)
	sys.Prepare(employeeSamples())

	ms := sys.MemStats()
	if !ms.Degraded || ms.DegradeReason == "" {
		t.Fatalf("budget pressure not surfaced: %+v", ms)
	}
	if sys.PoolSize() == 0 {
		t.Fatal("pressure emptied the pool instead of truncating it")
	}
	if ms.Budget == nil {
		t.Fatal("budget stats missing")
	}
	if ms.Budget.Used > ms.Budget.Limit {
		t.Errorf("budget overrun: used %d > limit %d", ms.Budget.Used, ms.Budget.Limit)
	}
	if ms.Budget.Denied == 0 {
		t.Errorf("no denial recorded despite truncation")
	}

	// The same samples under a roomy budget: strictly more pool.
	full := governed(core.New(schematest.Employee(), governedOpts()), 256<<20)
	full.Prepare(employeeSamples())
	if full.PoolSize() <= sys.PoolSize() {
		t.Errorf("tight budget kept %d candidates, roomy %d; expected a strict truncation",
			sys.PoolSize(), full.PoolSize())
	}
}

// TestSwapHoldsOneSnapshotCharge: a reload of an unchanged spec builds
// on a fork under a budget of its own at the live limit, and adopt moves
// a difference of zero onto the live budget. A budget with room for one
// snapshot and ~15 % more therefore reloads without degrading: the
// generation advances, pool and answers are byte-identical, and the
// budget holds exactly one snapshot's charge.
func TestSwapHoldsOneSnapshotCharge(t *testing.T) {
	opts := governedOpts()
	probe := governed(core.New(schematest.Employee(), opts), 256<<20)
	probe.Prepare(employeeSamples())
	if err := probe.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	snapBytes := probe.MemStats().SnapshotBytes

	sys := governed(core.New(schematest.Employee(), opts), snapBytes+snapBytes*15/100)
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	answers := func() []string {
		var out []string
		for _, q := range checkpointQuestions {
			tr, err := sys.Translate(q)
			if err != nil {
				t.Fatal(err)
			}
			_, body, _ := strings.Cut(renderTranslation(tr), "\n")
			out = append(out, body)
		}
		return out
	}
	before, dialects, gen := answers(), sys.PoolDialects(), sys.Generation()

	got, err := sys.Rebuild(func(f *core.System) error {
		f.Prepare(employeeSamples())
		return f.Train(employeeExamples())
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != gen+1 {
		t.Fatalf("rebuild published generation %d, want %d", got, gen+1)
	}
	ms := sys.MemStats()
	if ms.Degraded || ms.DegradedBuilds != 0 {
		t.Fatalf("reload of the same samples degraded: %+v", ms)
	}
	if ms.SnapshotBytes != snapBytes || ms.Budget.Used != ms.SnapshotBytes {
		t.Errorf("after rebuild: snapshot %d, used %d; want both %d", ms.SnapshotBytes, ms.Budget.Used, snapBytes)
	}
	if ms.Budget.Peak > ms.Budget.Limit {
		t.Errorf("budget peak %d over its limit %d", ms.Budget.Peak, ms.Budget.Limit)
	}
	if !slices.Equal(sys.PoolDialects(), dialects) {
		t.Error("rebuild changed the pool of the same samples")
	}
	if after := answers(); !slices.Equal(after, before) {
		t.Errorf("answers changed across the rebuild:\n%v\nvs\n%v", after, before)
	}
}

// TestSwapDeniedGrowLeavesLiveState: a rebuilt snapshot larger than the
// live one fits the tenant's own share, but the process budget above it
// is held by another tenant. adopt's Grow is denied: Rebuild fails with
// memgov.ErrBudgetExceeded and the live snapshot, generation and charge
// stay as they were, while a rebuild that shrinks the pool moves the
// charge down.
func TestSwapDeniedGrowLeavesLiveState(t *testing.T) {
	opts := governedOpts()
	small := employeeSamples()[:4]
	probe := core.New(schematest.Employee(), opts)
	probe.SetResources(memgov.New("probe", 0))
	probe.Prepare(employeeSamples())
	if err := probe.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	full := probe.MemStats().SnapshotBytes

	process := memgov.New("process", 2*full)
	sys := core.New(schematest.Employee(), opts)
	sys.SetResources(process.Child("tenant", 0))
	sys.Prepare(small)
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	before := sys.MemStats()
	if before.SnapshotBytes >= full {
		t.Fatalf("small pool charges %d, not below the full pool's %d", before.SnapshotBytes, full)
	}
	other := process.Hold()
	if err := other.Grow(2*full - full/2 - before.SnapshotBytes); err != nil {
		t.Fatal(err)
	}
	gen, pool := sys.Generation(), sys.PoolDialects()
	fullBuild := func(f *core.System) error {
		f.Prepare(employeeSamples())
		return f.Train(employeeExamples())
	}
	if _, err := sys.Rebuild(fullBuild); !errors.Is(err, memgov.ErrBudgetExceeded) {
		t.Fatalf("rebuild past the process budget: %v, want ErrBudgetExceeded", err)
	}
	after := sys.MemStats()
	if sys.Generation() != gen || !slices.Equal(sys.PoolDialects(), pool) {
		t.Errorf("denied rebuild changed the live snapshot: generation %d -> %d", gen, sys.Generation())
	}
	if after.SnapshotBytes != before.SnapshotBytes || after.Budget.Used != before.Budget.Used {
		t.Errorf("denied rebuild moved the charge: %+v -> %+v", before, after)
	}
	if after.Degraded != before.Degraded || after.DegradeReason != before.DegradeReason || after.DegradedBuilds != before.DegradedBuilds {
		t.Errorf("denied rebuild replaced the build record: %+v -> %+v", before, after)
	}

	// With the other tenant gone the same rebuild fits, and the charge
	// follows the pool up; a rebuild back to the small pool moves it down.
	other.Release()
	if _, err := sys.Rebuild(fullBuild); err != nil {
		t.Fatal(err)
	}
	if ms := sys.MemStats(); ms.SnapshotBytes != full || ms.Budget.Used != full || process.Used() != full {
		t.Errorf("grown rebuild: snapshot %d, tenant %d, process %d; want all %d",
			ms.SnapshotBytes, ms.Budget.Used, process.Used(), full)
	}
	if _, err := sys.Rebuild(func(f *core.System) error {
		f.Prepare(small)
		return f.Train(employeeExamples())
	}); err != nil {
		t.Fatal(err)
	}
	if ms := sys.MemStats(); ms.SnapshotBytes != before.SnapshotBytes || process.Used() != before.SnapshotBytes {
		t.Errorf("shrunk rebuild: snapshot %d, process %d; want both %d", ms.SnapshotBytes, process.Used(), before.SnapshotBytes)
	}
}
