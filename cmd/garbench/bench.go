package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ltr"
	"repro/internal/rerank"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/vector"
	"repro/internal/vindex"
)

// benchSamples and benchQuestions fix the translate-benchmark workload:
// the employee-database sample queries from the paper's running example
// and the NL questions asked against them.
func benchSamples() []string {
	return []string{
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
		"SELECT name FROM employee WHERE age > 30",
		"SELECT age FROM employee WHERE city = 'Austin'",
		"SELECT city, COUNT(*) FROM employee GROUP BY city",
		"SELECT AVG(bonus) FROM evaluation",
		"SELECT COUNT(*) FROM employee",
		"SELECT shop_name FROM shop ORDER BY number_products DESC LIMIT 1",
		"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
		"SELECT city FROM employee",
	}
}

func benchQuestions() []string {
	return []string{
		"find the name of the employee who got the highest one time bonus",
		"which employees are older than 30",
		"what is the age of employees living in Austin",
		"how many employees live in each city",
		"what is the average bonus",
		"how many employees are there",
		"which shop has the most products",
		"who is the oldest employee",
		"list the cities employees live in",
	}
}

func benchExamples() ([]ltr.Example, error) {
	samples, questions := benchSamples(), benchQuestions()
	out := make([]ltr.Example, len(samples))
	for i := range samples {
		gold, err := sqlparse.Parse(samples[i])
		if err != nil {
			return nil, fmt.Errorf("bench sample %d: %w", i, err)
		}
		out[i] = ltr.Example{NL: questions[i], Gold: gold}
	}
	return out, nil
}

// benchStats is one measured configuration.
type benchStats struct {
	Ops         int     `json:"ops"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	QPS         float64 `json:"qps"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
}

// benchReport is the BENCH_translate.json schema.
type benchReport struct {
	GOMAXPROCS  int        `json:"gomaxprocs"`
	PoolSize    int        `json:"pool_size"`
	RetrievalK  int        `json:"retrieval_k"`
	Questions   int        `json:"questions"`
	Iters       int        `json:"iters"`
	EqualOutput bool       `json:"equal_ranked_output"`
	Sequential  benchStats `json:"sequential"`
	Parallel    benchStats `json:"parallel"`
	Speedup     float64    `json:"speedup"`
	CacheMiss   benchStats `json:"cache_miss"`
	CacheHit    benchStats `json:"cache_hit"`
	HitSpeedup  float64    `json:"cache_hit_speedup"`
}

// measure times fn over iters passes of the question set, reporting
// latency percentiles, throughput and heap allocations per call.
func measure(iters int, questions []string, fn func(nl string)) benchStats {
	ops := iters * len(questions)
	lat := make([]float64, 0, ops)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for it := 0; it < iters; it++ {
		for _, q := range questions {
			t0 := time.Now()
			fn(q)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	total := time.Since(start)
	runtime.ReadMemStats(&m1)
	sort.Float64s(lat)
	pct := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }
	return benchStats{
		Ops:         ops,
		P50ms:       pct(0.50),
		P95ms:       pct(0.95),
		QPS:         float64(ops) / total.Seconds(),
		AllocsPerOp: (m1.Mallocs - m0.Mallocs) / uint64(ops),
	}
}

// legacyRank reproduces the pre-optimization second stage exactly: each
// candidate pays the full per-pair feature extraction — NL-side
// tokenization and both-side encoding included — once to order the
// list and a second time to report its score, as the pipeline did
// before NL-side preparation, precomputed dialect embeddings and
// single-pass scoring were introduced.
func legacyRank(pipe *ltr.Pipeline, nl string, hits []vindex.Hit) []ltr.Ranked {
	type scored struct {
		idx   int
		score float64
	}
	s := make([]scored, len(hits))
	for i, h := range hits {
		s[i] = scored{idx: i, score: pipe.Reranker.Score(nl, pipe.Pool[h.ID].Dialect)}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].score > s[j-1].score; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := make([]ltr.Ranked, 0, len(hits))
	for _, sc := range s {
		h := hits[sc.idx]
		c := pipe.Pool[h.ID]
		out = append(out, ltr.Ranked{
			ID:      h.ID,
			Score:   pipe.Reranker.Score(nl, c.Dialect), // legacy second pass
			Dialect: c.Dialect,
			SQL:     c.SQL,
		})
	}
	return out
}

func sameRanked(a, b []ltr.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score || a[i].Dialect != b[i].Dialect {
			return false
		}
	}
	return true
}

// runTranslateBench builds one trained employee system, then measures
// the translate hot path four ways: the legacy sequential second stage
// versus the amortized/batched one (asserting byte-identical ranked
// output first), and a cache miss versus a cache hit on the full
// translation path. Results are printed and written to outPath as JSON.
//
//garlint:allow errlost -- the measured closures time warmed calls whose results are discarded by design; setup errors are checked before any measurement
func runTranslateBench(iters int, outPath string) error {
	if iters < 1 {
		iters = 1
	}
	opts := core.Options{
		GeneralizeSize: 2000,
		RetrievalK:     100,
		Seed:           42,
		EncoderEpochs:  12,
		RerankEpochs:   30,
	}
	db := schematest.Employee()
	sys := core.New(db, opts)
	samples := make([]*sqlast.Query, 0, len(benchSamples()))
	for i, s := range benchSamples() {
		q, err := sqlparse.Parse(s)
		if err != nil {
			return fmt.Errorf("bench sample %d: %w", i, err)
		}
		samples = append(samples, q)
	}
	examples, err := benchExamples()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: preparing pool and training models...")
	sys.Prepare(samples)
	models, err := core.TrainModels(
		[]core.TrainingSet{{Sys: sys, Examples: examples}}, opts)
	if err != nil {
		return err
	}
	if err := sys.UseModels(models); err != nil {
		return err
	}

	// Two hand-assembled pipelines over one shared pool and index: the
	// sequential baseline has no precomputed dialect embeddings, feature
	// table or second worker; the parallel one is shaped as core builds
	// it, minus the cost feature the legacy path cannot see.
	pool := sys.Pool()
	vecs := make([]vector.Vec, len(pool))
	dialects := make([]string, len(pool))
	index := vindex.NewFlat()
	for i, c := range pool {
		vecs[i] = models.Encoder.Encode(c.Dialect)
		dialects[i] = c.Dialect
		index.Add(i, vecs[i])
	}
	base := &ltr.Pipeline{
		Encoder:  models.Encoder,
		Index:    index,
		Reranker: models.Reranker,
		Pool:     pool,
		K:        opts.RetrievalK,
		Workers:  1,
	}
	fast := &ltr.Pipeline{
		Encoder:  models.Encoder,
		Index:    index,
		Reranker: models.Reranker,
		Pool:     pool,
		K:        opts.RetrievalK,
		DialVecs: vecs,
		Table:    rerank.NewTable(dialects),
	}

	ctx := context.Background()
	questions := benchQuestions()
	report := benchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolSize:   len(pool),
		RetrievalK: opts.RetrievalK,
		Questions:  len(questions),
		Iters:      iters,
	}

	// Throughput means nothing if the fast path returns different
	// answers: assert byte-identical ranked output before timing.
	report.EqualOutput = true
	for _, q := range questions {
		hits, err := base.RetrieveContext(ctx, q, 0)
		if err != nil {
			return err
		}
		want := legacyRank(base, q, hits)
		got, err := fast.RerankVecContext(ctx, q, nil, hits)
		if err != nil {
			return err
		}
		if !sameRanked(want, got) {
			report.EqualOutput = false
			return fmt.Errorf("bench: ranked output diverged for %q", q)
		}
	}

	fmt.Fprintln(os.Stderr, "bench: measuring sequential (legacy) path...")
	report.Sequential = measure(iters, questions, func(nl string) {
		hits, err := base.RetrieveContext(ctx, nl, 0)
		if err == nil {
			legacyRank(base, nl, hits)
		}
	})
	fmt.Fprintln(os.Stderr, "bench: measuring batched path...")
	report.Parallel = measure(iters, questions, func(nl string) {
		hits, err := fast.RetrieveContext(ctx, nl, 0)
		if err == nil {
			_, _ = fast.RerankVecContext(ctx, nl, nil, hits)
		}
	})
	report.Speedup = report.Parallel.QPS / report.Sequential.QPS

	// Cache miss vs hit on the full translation path (retrieval,
	// re-rank, value post-processing): the miss system never caches;
	// the hit system is warmed once per question first.
	missOpts, hitOpts := opts, opts
	missOpts.NoCache = true
	missSys := core.New(db, missOpts)
	missSys.Prepare(samples)
	if err := missSys.UseModels(models); err != nil {
		return err
	}
	hitSys := core.New(db, hitOpts)
	hitSys.Prepare(samples)
	if err := hitSys.UseModels(models); err != nil {
		return err
	}
	for _, q := range questions {
		if _, err := hitSys.TranslateContext(ctx, q); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "bench: measuring cache miss path...")
	report.CacheMiss = measure(iters, questions, func(nl string) {
		_, _ = missSys.TranslateContext(ctx, nl)
	})
	fmt.Fprintln(os.Stderr, "bench: measuring cache hit path...")
	report.CacheHit = measure(iters, questions, func(nl string) {
		_, _ = hitSys.TranslateContext(ctx, nl)
	})
	if report.CacheHit.P50ms > 0 {
		report.HitSpeedup = report.CacheMiss.P50ms / report.CacheHit.P50ms
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("translate bench: pool=%d k=%d gomaxprocs=%d\n",
		report.PoolSize, report.RetrievalK, report.GOMAXPROCS)
	fmt.Printf("  sequential: p50 %.2fms p95 %.2fms %.1f qps\n",
		report.Sequential.P50ms, report.Sequential.P95ms, report.Sequential.QPS)
	fmt.Printf("  batched:    p50 %.2fms p95 %.2fms %.1f qps (%.2fx)\n",
		report.Parallel.P50ms, report.Parallel.P95ms, report.Parallel.QPS, report.Speedup)
	fmt.Printf("  cache miss: p50 %.2fms   hit: p50 %.3fms (%.0fx)\n",
		report.CacheMiss.P50ms, report.CacheHit.P50ms, report.HitSpeedup)
	fmt.Printf("  written to %s\n", outPath)
	return nil
}
