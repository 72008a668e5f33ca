package core_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/memgov"
	"repro/internal/schema/schematest"
)

// governedOpts is the shared shape of the resource-governed test
// systems: a roomy budget (governance on, no pressure) and a spill
// buffer so small that every pool build streams through disk.
func governedOpts(spillDir string) core.Options {
	return core.Options{
		GeneralizeSize:   300,
		RetrievalK:       10,
		EncoderEpochs:    12,
		RerankEpochs:     40,
		Seed:             42,
		NoCache:          true,
		MemBudget:        256 << 20,
		SpillDir:         spillDir,
		SpillBufferBytes: 4096,
	}
}

// TestParallelTranslateDeterminismSpill pins the tentpole equivalence:
// a resource-governed system whose pool build spilled through disk
// must produce byte-identical translations — same order, same
// bit-exact scores — as an unbounded system that kept everything in
// RAM, including under concurrent load. Spilling is a placement
// decision, never a quality decision. Runs in the stress target under
// the race detector.
func TestParallelTranslateDeterminismSpill(t *testing.T) {
	ramOpts := core.Options{
		GeneralizeSize: 300,
		RetrievalK:     10,
		EncoderEpochs:  12,
		RerankEpochs:   40,
		Seed:           42,
		NoCache:        true,
		Workers:        1,
	}
	ram := core.New(schematest.Employee(), ramOpts)
	ram.Prepare(employeeSamples())
	if err := ram.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}

	spillOpts := governedOpts(t.TempDir())
	spillOpts.Workers = 8
	spilled := core.New(schematest.Employee(), spillOpts)
	spilled.Prepare(employeeSamples())
	if err := spilled.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}

	// The premise must hold: the governed build actually went to disk,
	// cleanly (no truncation, no degradation), and left no scratch.
	ms := spilled.MemStats()
	if ms.SpillFiles == 0 || ms.SpillFrames == 0 {
		t.Fatalf("governed build never spilled: %+v", ms)
	}
	if ms.Degraded {
		t.Fatalf("roomy budget degraded: %q", ms.DegradeReason)
	}
	if spilled.PoolSize() != ram.PoolSize() {
		t.Fatalf("pool size diverged: spilled %d, RAM %d", spilled.PoolSize(), ram.PoolSize())
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
		tr, err := ram.Translate(q)
		if err != nil {
			t.Fatalf("RAM translate %q: %v", q, err)
		}
		want[q] = renderTranslation(tr)
	}
	for _, q := range questions {
		tr, err := spilled.Translate(q)
		if err != nil {
			t.Fatalf("spilled translate %q: %v", q, err)
		}
		if got := renderTranslation(tr); got != want[q] {
			t.Fatalf("spilled output diverged for %q:\n--- RAM ---\n%s\n--- spilled ---\n%s", q, want[q], got)
		}
	}

	// Under contention: the spilled system hammered from eight
	// goroutines must keep matching the RAM reference exactly.
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := questions[(g+r)%len(questions)]
				tr, err := spilled.Translate(q)
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

// TestFaultSpillMatrix drives the spill-disk failure matrix —
// {short write, bit flip, sync failure} on the write side, {short
// read, bit flip, read error} on the merge side — through a governed
// pool build. The contract at every cell: the build never panics and
// never returns an error; the published state is flagged Degraded with
// a reason; whatever survived is servable; no spill scratch is left
// behind; and the next clean build fully recovers. Runs in the stress
// target under the race detector.
func TestFaultSpillMatrix(t *testing.T) {
	cases := []struct {
		name  string
		stage faults.Stage
		plan  faults.Plan
		// wantPool: the cell must keep a non-empty (truncated) pool.
		// A sync failure at run finish legitimately loses the whole
		// unsynced run — crash-safety forbids trusting it — so that
		// cell only guarantees the degrade-not-panic half.
		wantPool bool
	}{
		{"short write during buffer flush", faults.FSWrite,
			faults.Plan{Kind: faults.KindShortWrite, Bytes: 7}, true},
		{"bit flip during spill write", faults.FSWrite,
			faults.Plan{Kind: faults.KindBitFlip, Offset: 97, After: 2, Times: 1}, true},
		{"sync failure at run finish", faults.FSSync,
			faults.Plan{Kind: faults.KindError}, false},
		{"short read during merge", faults.FSRead,
			faults.Plan{Kind: faults.KindShortWrite, Bytes: 5, After: 2}, true},
		{"bit flip during merge", faults.FSRead,
			faults.Plan{Kind: faults.KindBitFlip, Offset: 41, After: 2, Times: 1}, true},
		{"read error during merge", faults.FSRead,
			faults.Plan{Kind: faults.KindError, After: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spillDir := filepath.Join(t.TempDir(), "spill")
			sys := core.New(schematest.Employee(), governedOpts(spillDir))
			inj := faults.NewInjector(1).Inject(tc.stage, tc.plan)
			sys.SetFaultInjector(inj)
			sys.Prepare(employeeSamples())
			sys.SetFaultInjector(nil)

			if inj.Fired(tc.stage) == 0 {
				t.Fatalf("fault at %s never fired; the matrix cell tested nothing", tc.stage)
			}
			ms := sys.MemStats()
			if !ms.Degraded || ms.DegradeReason == "" {
				t.Fatalf("spill fault not surfaced as degradation: %+v", ms)
			}
			if ms.DegradedBuilds == 0 {
				t.Errorf("degraded-build counter not incremented")
			}
			if tc.wantPool && sys.PoolSize() == 0 {
				t.Fatalf("no candidates survived a recoverable fault")
			}
			if n := spillScratch(t, spillDir); n != 0 {
				t.Errorf("%d spill artifact(s) left behind after a failed build", n)
			}

			// The fault was transient: the next clean build must publish
			// a complete, undegraded pool over the degraded one.
			sys.Prepare(employeeSamples())
			ms = sys.MemStats()
			if ms.Degraded || sys.PoolSize() == 0 {
				t.Fatalf("clean rebuild did not recover: degraded=%v reason=%q pool=%d",
					ms.Degraded, ms.DegradeReason, sys.PoolSize())
			}
			if ms.SpillFiles == 0 {
				t.Errorf("clean rebuild did not spill; buffer cap not exercised")
			}
			if err := sys.Train(employeeExamples()); err != nil {
				t.Fatal(err)
			}
			tr, err := sys.Translate("how many employees are there")
			if err != nil || len(tr.Ranked) == 0 {
				t.Fatalf("recovered system cannot translate: %v", err)
			}
		})
	}
}

// spillScratch counts spill artifacts (runs and temps) left in dir.
func spillScratch(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".spill") || strings.HasSuffix(e.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// TestSetResourcesLifecycle pins the fleet-shaped lifecycle: a budget
// installed after construction via SetResources governs the next build
// (snapshot and caches both accounted), and ReleaseMemory — the
// eviction path — returns every byte, including cache reservations.
func TestSetResourcesLifecycle(t *testing.T) {
	opts := governedOpts(t.TempDir())
	opts.MemBudget = 0
	opts.SpillDir = ""
	opts.NoCache = false
	sys := core.New(schematest.Employee(), opts)

	budget := memgov.New("tenant", 64<<20)
	sys.SetResources(budget, t.TempDir())
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	ms := sys.MemStats()
	if ms.Budget == nil || ms.Budget.Used <= 0 || ms.SnapshotBytes <= 0 {
		t.Fatalf("installed budget not charged: %+v", ms)
	}
	if ms.SpillFiles == 0 {
		t.Fatalf("installed spill dir unused: %+v", ms)
	}
	// A translation populates the governed caches on top of the snapshot.
	if _, err := sys.Translate("how many employees are there"); err != nil {
		t.Fatal(err)
	}
	if budget.Used() <= ms.SnapshotBytes {
		t.Errorf("caches unaccounted: used %d, snapshot alone %d", budget.Used(), ms.SnapshotBytes)
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
	tight := governedOpts(t.TempDir())
	tight.MemBudget = 10 << 10
	sys := core.New(schematest.Employee(), tight)
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
}

// TestBudgetPressureDegrades pins rung 2 of the degradation ladder: a
// budget that cannot hold the whole pool truncates it at the denial
// point — flagged Degraded with the drop count in the reason — instead
// of failing the build, and the accountant never exceeds its limit.
func TestBudgetPressureDegrades(t *testing.T) {
	tight := governedOpts(t.TempDir())
	tight.MemBudget = 32 << 10
	sys := core.New(schematest.Employee(), tight)
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
	roomy := governedOpts(t.TempDir())
	full := core.New(schematest.Employee(), roomy)
	full.Prepare(employeeSamples())
	if full.PoolSize() <= sys.PoolSize() {
		t.Errorf("tight budget kept %d candidates, roomy %d; expected a strict truncation",
			sys.PoolSize(), full.PoolSize())
	}
}

// TestSwapKeepsReproducedPool: a Swap whose samples regenerate the
// published pool — a reload of an unchanged spec — keeps the published
// candidates instead of materializing a second copy. A budget with room
// for one snapshot plus a second set of embeddings and feature table,
// but not for two whole snapshots, then reloads without degrading;
// the generation still advances and the answers are unchanged.
func TestSwapKeepsReproducedPool(t *testing.T) {
	opts := core.Options{GeneralizeSize: 300, RetrievalK: 10, EncoderEpochs: 12, RerankEpochs: 40, Seed: 42, NoCache: true,
		MemBudget: 256 << 20}
	probe := core.New(schematest.Employee(), opts)
	probe.Prepare(employeeSamples())
	poolBytes := probe.MemStats().SnapshotBytes
	if err := probe.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	snapBytes := probe.MemStats().SnapshotBytes

	opts.MemBudget = 2*snapBytes - poolBytes/2
	sys := core.New(schematest.Employee(), opts)
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

	models, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Swap(employeeSamples(), models)
	if err != nil {
		t.Fatal(err)
	}
	if got != gen+1 {
		t.Fatalf("swap published generation %d, want %d", got, gen+1)
	}
	ms := sys.MemStats()
	if ms.Degraded || ms.DegradedBuilds != 0 {
		t.Fatalf("reload of the same samples degraded: %+v", ms)
	}
	if ms.SnapshotBytes != snapBytes || ms.Budget.Used != snapBytes {
		t.Errorf("after swap: snapshot %d, used %d; want both %d", ms.SnapshotBytes, ms.Budget.Used, snapBytes)
	}
	if !slices.Equal(sys.PoolDialects(), dialects) {
		t.Error("swap changed the reproduced pool")
	}
	if after := answers(); !slices.Equal(after, before) {
		t.Errorf("answers changed across the swap:\n%v\nvs\n%v", after, before)
	}
}
