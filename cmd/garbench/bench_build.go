package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
)

// The build benchmark times one tenant's cold build — Prepare, then
// TrainModels and UseModels as an activation runs them — stage by stage
// (core.ProfileBuild), on the first SPIDER-like training database at
// dataset seed 1 with models trained on its first 60 pairs at the serve
// defaults. Two pools: cap 2,000 (the tenant of BENCH_restore.json,
// about the size of a fleet_churn tenant) and, at -scale full, cap
// 6,000 (the paper_scale tenant of BENCH_translate.json). Each pool is
// built iters times at GOMAXPROCS 1 and N. Every build's models must
// hash to one digest; on amd64 that digest must also equal the one
// committed in BENCH_build.json and its parent block, so a faster build
// that trains other bits fails here.

// buildCommitted is the committed report every run checks its digests
// against, read from the working directory.
const buildCommitted = "BENCH_build.json"

// buildTenant is one pool size's workload.
type buildTenant struct {
	name    string
	poolCap int
	held    int // items generated past the training pairs (they enlarge the sample set)
}

var buildTenants = []buildTenant{
	{name: "pool_2k", poolCap: restorePoolCap, held: restoreHeld},
	{name: "pool_5k", poolCap: paperPoolCap, held: paperHeld},
}

// buildStageRow is one stage's cost per build: mean and median wall
// time, and mean allocations.
type buildStageRow struct {
	Name   string  `json:"name"`
	MeanMS float64 `json:"mean_ms"`
	P50ms  float64 `json:"p50_ms"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
}

// buildRun is one GOMAXPROCS setting of one pool. The stage means add
// up to StagesMS; BuildMeanMS is the wall time of the whole build
// measured outside it, and UnattributedMS the difference.
type buildRun struct {
	GOMAXPROCS     int             `json:"gomaxprocs"`
	Builds         int             `json:"builds"`
	BuildMeanMS    float64         `json:"build_mean_ms"`
	BuildP50ms     float64         `json:"build_p50_ms"`
	BuildMinMS     float64         `json:"build_min_ms"`
	BuildMaxMS     float64         `json:"build_max_ms"`
	StagesMS       float64         `json:"stages_sum_ms"`
	UnattributedMS float64         `json:"unattributed_ms"`
	Allocs         uint64          `json:"allocs_per_build"`
	Bytes          uint64          `json:"bytes_per_build"`
	Stages         []buildStageRow `json:"stages"`
}

// buildPool is one pool's section of the report.
type buildPool struct {
	Name     string     `json:"name"`
	Database string     `json:"database"`
	PoolCap  int        `json:"pool_cap"`
	PoolSize int        `json:"pool_size"`
	Digest   string     `json:"models_digest"`
	Runs     []buildRun `json:"runs"`
}

// buildReport is the BENCH_build.json schema. Parent is carried over
// from the committed file unchanged: the same harness run against the
// commit before the training cuts, the baseline the runs are read
// against.
type buildReport struct {
	Iters  int             `json:"iters"`
	Pools  []buildPool     `json:"pools"`
	Parent json.RawMessage `json:"parent,omitempty"`
}

// runBuildBench measures the build of each pool the scale selects and
// writes the report to outPath.
func runBuildBench(iters int, full bool, outPath string) error {
	if iters < 1 {
		iters = 1
	}
	var committed buildReport
	haveCommitted, err := previousReport(buildCommitted, &committed)
	if err != nil {
		return err
	}
	report := buildReport{Iters: iters, Parent: committed.Parent}
	tenants := buildTenants[:1]
	if full {
		tenants = buildTenants
	}
	for _, bt := range tenants {
		pool, err := measureBuilds(bt, iters)
		if err != nil {
			return err
		}
		if err := checkBuildDigest(pool, haveCommitted, committed); err != nil {
			return err
		}
		report.Pools = append(report.Pools, pool)
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	for _, p := range report.Pools {
		fmt.Printf("build bench: %s %s pool=%d models %s\n", p.Name, p.Database, p.PoolSize, p.Digest[:16])
		for _, r := range p.Runs {
			fmt.Printf("  GOMAXPROCS %d: build mean %.0fms p50 %.0fms (stages %.0fms, unattributed %.2fms) %d allocs %d B\n",
				r.GOMAXPROCS, r.BuildMeanMS, r.BuildP50ms, r.StagesMS, r.UnattributedMS, r.Allocs, r.Bytes)
			for _, s := range r.Stages {
				fmt.Printf("    %-16s %8.1fms %10d allocs %12d B\n", s.Name, s.MeanMS, s.Allocs, s.Bytes)
			}
		}
	}
	fmt.Printf("  written to %s\n", outPath)
	return nil
}

// measureBuilds builds one pool iters times at GOMAXPROCS 1 and at the
// process's GOMAXPROCS, requiring one models digest throughout.
func measureBuilds(bt buildTenant, iters int) (buildPool, error) {
	tn := newSpiderTenant(restoreTrain+1+bt.held, bt.poolCap)
	examples := tn.examples[:restoreTrain]
	pool := buildPool{Name: bt.name, Database: tn.db, PoolCap: bt.poolCap}

	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	settings := []int{1}
	if procs > 1 {
		settings = append(settings, procs)
	}
	for _, p := range settings {
		runtime.GOMAXPROCS(p)
		fmt.Fprintf(os.Stderr, "bench: %d builds of %s at GOMAXPROCS %d...\n", iters, bt.name, p)
		run := buildRun{GOMAXPROCS: p, Builds: iters}
		walls := make([]float64, 0, iters)
		perStage := map[string][]float64{}
		var names []string
		allocSum, byteSum := map[string]uint64{}, map[string]uint64{}
		for i := 0; i < iters; i++ {
			sys := tn.system()
			runtime.GC()
			t0 := time.Now()
			m, stages, err := core.ProfileBuild(sys, tn.samples, examples)
			walls = append(walls, msSince(t0))
			if err != nil {
				return pool, err
			}
			digest, err := modelsDigest(m)
			if err != nil {
				return pool, err
			}
			switch {
			case pool.Digest == "":
				pool.Digest, pool.PoolSize = digest, sys.PoolSize()
			case digest != pool.Digest:
				return pool, fmt.Errorf("bench: %s build %d at GOMAXPROCS %d trained models %s, an earlier build %s",
					bt.name, i, p, digest, pool.Digest)
			}
			for _, s := range stages {
				if _, ok := perStage[s.Name]; !ok {
					names = append(names, s.Name)
				}
				perStage[s.Name] = append(perStage[s.Name], float64(s.Dur.Nanoseconds())/1e6)
				allocSum[s.Name] += s.Allocs
				byteSum[s.Name] += s.Bytes
			}
		}
		for _, name := range names {
			ms := perStage[name]
			row := buildStageRow{Name: name, MeanMS: mean(ms), P50ms: median(ms),
				Allocs: allocSum[name] / uint64(iters), Bytes: byteSum[name] / uint64(iters)}
			run.Stages = append(run.Stages, row)
			run.StagesMS += row.MeanMS
			run.Allocs += row.Allocs
			run.Bytes += row.Bytes
		}
		run.BuildMeanMS, run.BuildP50ms = mean(walls), median(walls)
		run.BuildMinMS, run.BuildMaxMS = slices.Min(walls), slices.Max(walls)
		run.UnattributedMS = run.BuildMeanMS - run.StagesMS
		pool.Runs = append(pool.Runs, run)
	}
	return pool, nil
}

// checkBuildDigest requires a pool's models digest to equal the one the
// committed report and its parent block record for that pool, on
// amd64: the digest pins amd64 float arithmetic, as the core digest
// tests do.
func checkBuildDigest(pool buildPool, haveCommitted bool, committed buildReport) error {
	if !haveCommitted {
		fmt.Fprintf(os.Stderr, "bench: no %s here; the %s digest is not checked\n", buildCommitted, pool.Name)
		return nil
	}
	if runtime.GOARCH != "amd64" {
		fmt.Fprintf(os.Stderr, "bench: the committed digests were taken on amd64, not %s; not checked\n", runtime.GOARCH)
		return nil
	}
	var parent buildReport
	if len(committed.Parent) > 0 {
		if err := json.Unmarshal(committed.Parent, &parent); err != nil {
			return fmt.Errorf("bench: %s parent block: %w", buildCommitted, err)
		}
	}
	for _, rep := range []struct {
		what  string
		pools []buildPool
	}{{buildCommitted, committed.Pools}, {buildCommitted + " parent", parent.Pools}} {
		for _, p := range rep.pools {
			if p.Name == pool.Name && p.Digest != pool.Digest {
				return fmt.Errorf("bench: %s models digest %s, %s records %s", pool.Name, pool.Digest, rep.what, p.Digest)
			}
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[len(s)/2]
}

// gobRaw captures a GobEncoder field's bytes undecoded.
type gobRaw []byte

func (r *gobRaw) GobDecode(data []byte) error {
	*r = append((*r)[:0], data...)
	return nil
}

// modelsDigest hashes every value the models' saved stream carries,
// field by field in a fixed order: maps by sorted key, floats by their
// bits, the encoder's embedding table as its flat block. Raw streams
// are not comparable across runs (gob numbers types per process and
// writes maps in iteration order); this digest is, and it is the one
// internal/core's models digest tests pin.
//
//garlint:allow errlost -- hash.Hash.Write never returns an error by its documented contract
func modelsDigest(m *core.Models) (string, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return "", err
	}
	data := buf.Bytes()
	if len(data) < 24 {
		return "", fmt.Errorf("bench: saved models of %d bytes", len(data))
	}
	dec := func(data []byte, out any) error { return gob.NewDecoder(bytes.NewReader(data)).Decode(out) }
	var saved struct {
		Encoder   gobRaw
		HasRerank bool
		RerankNet gobRaw
		RerankIDF gobRaw
	}
	if err := dec(data[16:len(data)-8], &saved); err != nil {
		return "", err
	}
	var enc struct {
		Cfg   embed.Config
		Table []byte
		IDF   gobRaw
	}
	if err := dec(saved.Encoder, &enc); err != nil {
		return "", err
	}
	var net struct {
		Sizes           []int
		Weights, MW, VW [][][]float64
		Biases, MB, VB  [][]float64
		Step            int
	}
	if err := dec(saved.RerankNet, &net); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v rerank=%v sizes=%v step=%d\n", enc.Cfg, saved.HasRerank, net.Sizes, net.Step)
	h.Write(enc.Table)
	for _, idf := range []gobRaw{enc.IDF, saved.RerankIDF} {
		var st struct {
			Docs   int
			Counts map[string]int
		}
		if err := dec(idf, &st); err != nil {
			return "", err
		}
		fmt.Fprintf(h, "docs=%d\n", st.Docs)
		keys := make([]string, 0, len(st.Counts))
		for k := range st.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%q=%d\n", k, st.Counts[k])
		}
	}
	floats := func(xs []float64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	for _, layers := range [][][][]float64{net.Weights, net.MW, net.VW} {
		for _, rows := range layers {
			for _, row := range rows {
				floats(row)
			}
		}
	}
	for _, layers := range [][][]float64{net.Biases, net.MB, net.VB} {
		for _, row := range layers {
			floats(row)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
