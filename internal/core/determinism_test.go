package core_test

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ltr"
	"repro/internal/schema/schematest"
)

// renderTranslation canonicalizes a Translation for byte-level
// comparison: every ranked candidate with its printed SQL, dialect and
// the exact bit pattern of its score.
func renderTranslation(tr *core.Translation) string {
	var sb strings.Builder
	sb.WriteString("gen=" + strconv.FormatUint(tr.Generation, 10))
	sb.WriteString(" degraded=" + strconv.FormatBool(tr.Degraded))
	for _, w := range tr.Warnings {
		sb.WriteString(" warn=" + w)
	}
	for _, c := range tr.Ranked {
		sb.WriteString("\n")
		sb.WriteString(strconv.FormatFloat(c.Score, 'b', -1, 64))
		sb.WriteString("\t")
		sb.WriteString(c.Dialect)
		sb.WriteString("\t")
		sb.WriteString(c.SQL.String())
	}
	// Execution evidence is part of the contract too: the same demotion
	// decisions must fall out regardless of worker count.
	for _, v := range tr.Verdicts {
		sb.WriteString("\nverdict=")
		sb.WriteString(strconv.Itoa(v.Index))
		sb.WriteString("\t")
		sb.WriteString(v.Outcome.String())
		sb.WriteString("\trows=")
		sb.WriteString(strconv.Itoa(v.Rows))
		sb.WriteString("\t")
		sb.WriteString(v.Detail)
	}
	return sb.String()
}

// TestParallelTranslateDeterminism pins the contract of the batched
// second stage: with a fixed seed, a system scoring candidates on one
// worker and a system fanning out across eight produce byte-identical
// translations — same order, same bit-exact scores — including when the
// parallel system is hammered from many goroutines at once. Runs in the
// stress target under the race detector.
func TestParallelTranslateDeterminism(t *testing.T) {
	opts := core.Options{
		GeneralizeSize: 300,
		RetrievalK:     10,
		EncoderEpochs:  12,
		RerankEpochs:   40,
		Seed:           42,
		NoCache:        true, // every call must take the live scoring path
	}
	seqOpts, parOpts := opts, opts
	seqOpts.Workers = 1
	parOpts.Workers = 8

	seq := core.New(schematest.Employee(), seqOpts)
	seq.Prepare(employeeSamples())
	if err := seq.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	par := core.New(schematest.Employee(), parOpts)
	par.Prepare(employeeSamples())
	if err := par.Train(employeeExamples()); err != nil {
		t.Fatal(err)
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
		tr, err := seq.Translate(q)
		if err != nil {
			t.Fatalf("sequential translate %q: %v", q, err)
		}
		want[q] = renderTranslation(tr)
	}

	// Single-shot equality first: a clean divergence report beats a
	// concurrent one.
	for _, q := range questions {
		tr, err := par.Translate(q)
		if err != nil {
			t.Fatalf("parallel translate %q: %v", q, err)
		}
		if got := renderTranslation(tr); got != want[q] {
			t.Fatalf("parallel output diverged for %q:\n--- sequential ---\n%s\n--- parallel ---\n%s", q, want[q], got)
		}
	}

	// Then under contention: every concurrent call must still match the
	// sequential reference exactly.
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := questions[(g+r)%len(questions)]
				tr, err := par.Translate(q)
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

// TestParallelTranslateDeterminismExecGuided extends the determinism
// contract to the execution-guided fourth stage: with ExecGuide on, the
// one-worker and eight-worker systems must produce byte-identical
// translations including the per-candidate verdicts and the reordering
// they imply — executing candidates against the seeded sample instance
// must not introduce any scheduling-dependent behavior.
func TestParallelTranslateDeterminismExecGuided(t *testing.T) {
	opts := core.Options{
		GeneralizeSize: 300,
		RetrievalK:     10,
		EncoderEpochs:  12,
		RerankEpochs:   40,
		Seed:           42,
		NoCache:        true,
		ExecGuide:      true,
	}
	seqOpts, parOpts := opts, opts
	seqOpts.Workers = 1
	parOpts.Workers = 8

	seq := core.New(schematest.Employee(), seqOpts)
	seq.Prepare(employeeSamples())
	if err := seq.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	par := core.New(schematest.Employee(), parOpts)
	par.Prepare(employeeSamples())
	if err := par.Train(employeeExamples()); err != nil {
		t.Fatal(err)
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
		tr, err := seq.Translate(q)
		if err != nil {
			t.Fatalf("sequential translate %q: %v", q, err)
		}
		if len(tr.Verdicts) == 0 {
			t.Fatalf("exec-guided sequential translate %q produced no verdicts", q)
		}
		want[q] = renderTranslation(tr)
	}

	for _, q := range questions {
		tr, err := par.Translate(q)
		if err != nil {
			t.Fatalf("parallel translate %q: %v", q, err)
		}
		if got := renderTranslation(tr); got != want[q] {
			t.Fatalf("exec-guided parallel output diverged for %q:\n--- sequential ---\n%s\n--- parallel ---\n%s", q, want[q], got)
		}
	}

	const goroutines, rounds = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := questions[(g+r)%len(questions)]
				tr, err := par.Translate(q)
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

type errDiverged struct{ q string }

func (e errDiverged) Error() string {
	return "concurrent parallel translate diverged from sequential reference for " + strconv.Quote(e.q)
}

// TestShardedTranslateDeterminism is the invariance check at a pool
// large enough for the retrieval scan to shard (it hands each shard at
// least 2,048 candidates): a system scanning and scoring on one worker,
// one on eight, and one on eight restored from the latter's checkpoint
// with its caches on (asked each question twice: a miss, then a hit),
// each at GOMAXPROCS 1 and N, rank every question byte-identically.
func TestShardedTranslateDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a SPIDER-like system")
	}
	bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, TrainPerDB: 120, ValDBs: 1, ValPerDB: 1, Seed: 3})
	db := datasets.DBNames(bench.Train)[0]
	bundle := bench.Bundle(db)
	var examples []ltr.Example
	for _, it := range bench.Train {
		if it.DB == db {
			examples = append(examples, ltr.Example{NL: it.NL, Gold: it.Gold})
		}
	}
	opts := core.Options{GeneralizeSize: 6000, RetrievalK: 100, Seed: 3, EncoderEpochs: 2, RerankEpochs: 2}
	system := func(workers int, cache bool) *core.System {
		o := opts
		o.Workers, o.NoCache = workers, !cache
		sys := core.New(bundle.Schema, o)
		sys.SetContent(bundle.Content)
		return sys
	}
	build := func(workers int) *core.System {
		sys := system(workers, false)
		sys.Prepare(datasets.GoldQueries(bench.Train, db))
		if err := sys.Train(examples[:30]); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	seq, par := build(1), build(8)
	if n := par.PoolSize(); n < 2*2048 {
		t.Fatalf("pool of %d candidates is too small to shard", n)
	}
	m, sections, err := par.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cached := system(8, true)
	if err := cached.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	questions := examples[30:60]
	want := make([]string, len(questions))
	for i, ex := range questions {
		tr, err := seq.Translate(ex.NL)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderTranslation(tr)
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, p := range []int{1, max(procs, 2)} {
		runtime.GOMAXPROCS(p)
		for name, sys := range map[string]*core.System{"workers=1": seq, "workers=8": par, "restored with cache": cached} {
			for i, ex := range questions {
				for ask := 0; ask < 2; ask++ {
					tr, err := sys.Translate(ex.NL)
					if err != nil {
						t.Fatal(err)
					}
					if got := renderTranslation(tr); got != want[i] {
						t.Fatalf("%s at GOMAXPROCS %d diverged for %q:\n--- want ---\n%s\n--- got ---\n%s", name, p, ex.NL, want[i], got)
					}
				}
			}
		}
	}
}
