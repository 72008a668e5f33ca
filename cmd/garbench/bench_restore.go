package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ltr"
	"repro/internal/sqlast"
)

// The restore benchmark measures a tenant's warm start: one SPIDER-like
// database (the first tenant of perfbench's fleet_churn: same dataset
// seed, pool cap 2,000, 60 training pairs) is trained and exported
// once, and RestoreCheckpoint of that checkpoint into a fresh system is
// timed at GOMAXPROCS 1 and N. Every restored system must answer the
// held-out questions exactly as the exporter does — ranked SQL and
// scores — before its time counts.

// Restore-benchmark workload sizes.
const (
	restorePoolCap   = 2000
	restoreTrain     = 60
	restoreHeld      = 1100 // items generated past the training pairs (they enlarge the sample set)
	restoreQuestions = 30
)

// spiderTenant is the tenant the restore, paper-scale and build
// benchmarks run: the first SPIDER-like training database at dataset
// seed 1, generated with a given number of items, which are its
// examples in generation order; every gold query of the database is a
// sample, and the options are the serve defaults (14 encoder and 40
// re-ranker epochs, k = 100) at a pool cap, with no caches.
type spiderTenant struct {
	db       string
	bundle   *datasets.DBBundle
	examples []ltr.Example
	samples  []*sqlast.Query
	opts     core.Options
}

func newSpiderTenant(items, poolCap int) *spiderTenant {
	bench := datasets.SpiderLike(datasets.SpiderConfig{
		TrainDBs: 1, TrainPerDB: items, ValDBs: 1, ValPerDB: 1, Seed: 1,
	})
	db := datasets.DBNames(bench.Train)[0]
	tn := &spiderTenant{
		db: db, bundle: bench.Bundle(db), samples: datasets.GoldQueries(bench.Train, db),
		opts: core.Options{
			GeneralizeSize: poolCap, RetrievalK: 100, Seed: 1, EncoderEpochs: 14, RerankEpochs: 40, NoCache: true,
		},
	}
	for _, it := range bench.Train {
		if it.DB == db {
			tn.examples = append(tn.examples, ltr.Example{NL: it.NL, Gold: it.Gold})
		}
	}
	return tn
}

// system returns a fresh system on the tenant's schema and content.
func (tn *spiderTenant) system() *core.System {
	sys := core.New(tn.bundle.Schema, tn.opts)
	sys.SetContent(tn.bundle.Content)
	return sys
}

// restoreRun is one GOMAXPROCS setting's row in BENCH_restore.json.
type restoreRun struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Restores    int     `json:"restores"`
	P50ms       float64 `json:"p50_ms"`
	MinMS       float64 `json:"min_ms"`
	MaxMS       float64 `json:"max_ms"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
}

// restoreReport is the BENCH_restore.json schema. Parent, when the
// output file already holds one, is carried over unchanged: the same
// harness run against the commit before the flat-block checkpoint
// format, the baseline the runs are read against.
type restoreReport struct {
	Database        string          `json:"database"`
	PoolSize        int             `json:"pool_size"`
	CheckpointBytes int             `json:"checkpoint_bytes"`
	DecodeP50ms     float64         `json:"envelope_decode_p50_ms"`
	EqualAnswers    bool            `json:"equal_answers"`
	Runs            []restoreRun    `json:"runs"`
	Parent          json.RawMessage `json:"parent,omitempty"`
}

// runRestoreBench builds the tenant, exports its checkpoint and times
// iters restores (at least 3) at GOMAXPROCS 1 and at the process's
// GOMAXPROCS, asserting answer equality after each setting. Results are
// printed and written to outPath as JSON.
func runRestoreBench(iters int, outPath string) error {
	if iters < 3 {
		iters = 3
	}
	tn := newSpiderTenant(1+restoreTrain+restoreHeld, restorePoolCap)
	examples, newSystem := tn.examples, tn.system

	fmt.Fprintln(os.Stderr, "bench: building and training the tenant...")
	src := newSystem()
	src.Prepare(tn.samples)
	if err := src.Train(examples[:restoreTrain]); err != nil {
		return err
	}
	m, sections, err := src.ExportCheckpoint()
	if err != nil {
		return err
	}
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		return err
	}
	ctx := context.Background()
	questions := examples[restoreTrain : restoreTrain+restoreQuestions]
	want := make([]string, len(questions))
	for i, q := range questions {
		if want[i], err = rankedKey(ctx, src, q.NL, 0); err != nil {
			return err
		}
	}

	report := restoreReport{Database: tn.db, PoolSize: src.PoolSize(), CheckpointBytes: len(data), EqualAnswers: true}
	decodes := make([]float64, 0, iters)
	var ck *checkpoint.Checkpoint
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if ck, err = checkpoint.Decode(data); err != nil {
			return err
		}
		decodes = append(decodes, msSince(t0))
	}
	sort.Float64s(decodes)
	report.DecodeP50ms = decodes[len(decodes)/2]

	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	settings := []int{1}
	if procs > 1 {
		settings = append(settings, procs)
	}
	for _, p := range settings {
		runtime.GOMAXPROCS(p)
		fmt.Fprintf(os.Stderr, "bench: timing %d restores at GOMAXPROCS %d...\n", iters, p)
		run, restored, err := timeRestores(ck, iters, newSystem)
		if err != nil {
			return err
		}
		run.GOMAXPROCS = p
		report.Runs = append(report.Runs, run)
		for i, q := range questions {
			got, err := rankedKey(ctx, restored, q.NL, 0)
			if err != nil {
				return err
			}
			if got != want[i] {
				return fmt.Errorf("bench: restored system at GOMAXPROCS %d answers %q differently", p, q.NL)
			}
		}
	}

	var prev restoreReport
	if ok, err := previousReport(outPath, &prev); err != nil {
		return err
	} else if ok {
		report.Parent = prev.Parent
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("restore bench: %s pool=%d checkpoint=%d bytes, envelope decode p50 %.2fms\n",
		report.Database, report.PoolSize, report.CheckpointBytes, report.DecodeP50ms)
	for _, r := range report.Runs {
		fmt.Printf("  GOMAXPROCS %d: restore p50 %.2fms (min %.2f, max %.2f) %d allocs/op %d B/op\n",
			r.GOMAXPROCS, r.P50ms, r.MinMS, r.MaxMS, r.AllocsPerOp, r.BytesPerOp)
	}
	fmt.Printf("  written to %s\n", outPath)
	return nil
}

// timeRestores restores ck into n fresh systems, timing each
// RestoreCheckpoint, and returns the measured row with the last
// restored system.
func timeRestores(ck *checkpoint.Checkpoint, n int, newSystem func() *core.System) (restoreRun, *core.System, error) {
	run := restoreRun{Restores: n}
	lat := make([]float64, 0, n)
	var sys *core.System
	var allocs, bytes uint64
	for i := 0; i < n; i++ {
		sys = newSystem()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := sys.RestoreCheckpoint(ck)
		lat = append(lat, msSince(t0))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return run, nil, err
		}
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	sort.Float64s(lat)
	run.P50ms, run.MinMS, run.MaxMS = lat[len(lat)/2], lat[0], lat[len(lat)-1]
	run.AllocsPerOp, run.BytesPerOp = allocs/uint64(n), bytes/uint64(n)
	return run, sys, nil
}

// rankedKey renders the ranked output of a translation for its first n
// candidates (all when n <= 0) — SQL, dialect and exact score of each,
// one line per candidate — as one comparable string.
func rankedKey(ctx context.Context, sys *core.System, nl string, n int) (string, error) {
	t, err := sys.TranslateTopContext(ctx, nl, n)
	if err != nil {
		return "", err
	}
	var key strings.Builder
	for _, r := range t.Ranked {
		fmt.Fprintf(&key, "%s\t%x\t%s\n", r.SQL, r.Score, r.Dialect)
	}
	return key.String(), nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// previousReport decodes the report a benchmark wrote to path before,
// so a regeneration can carry its parent block over. It reports false
// when there is no file or it does not decode.
func previousReport(path string, prev any) (bool, error) {
	old, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return json.Unmarshal(old, prev) == nil, nil
}
