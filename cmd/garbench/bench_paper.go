package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// The paper-scale section of the translate benchmark times a translation
// that misses the cache at the pool size the paper evaluates
// (EXPERIMENTS.md: about 6,000 candidates per database). Its tenant is
// built the way perfbench's cold_miss builds each of its own: a
// SPIDER-like database at dataset seed 1, every gold query of the
// database as a sample, pool cap 6,000, models trained on its first 60
// pairs with the serve defaults, k = 100. The held-out questions after
// those pairs are translated at GOMAXPROCS 1 and N; the ranked output —
// SQL, dialect and exact score of every candidate — must be equal
// across the settings before any time counts. The served row times the
// call `gar serve` makes for a reply on the same questions: the best
// servedTop candidates (TranslateTopContext), each printed once as gar
// prints it. Its candidates must be the first servedTop of the full
// list's, also before any time counts.

// Paper-scale workload sizes.
const (
	paperPoolCap   = 6000
	paperTrain     = 60
	paperHeld      = 500
	paperQuestions = 100
	// servedTop is the candidates a `gar serve` reply returns (its
	// default -top).
	servedTop = 5
)

// paperRun is one GOMAXPROCS setting's measurement.
type paperRun struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	benchStats
}

// paperReport is the paper_scale section of BENCH_translate.json.
// Parent, when the output file already holds one, is carried over
// unchanged: the same harness run against the commit before the
// sharded scan, the baseline the runs are read against.
type paperReport struct {
	Database    string          `json:"database"`
	PoolSize    int             `json:"pool_size"`
	RetrievalK  int             `json:"retrieval_k"`
	Questions   int             `json:"questions"`
	Iters       int             `json:"iters"`
	EqualOutput bool            `json:"equal_ranked_output"`
	Runs        []paperRun      `json:"runs"`
	Served      *servedReport   `json:"served"`
	Parent      json.RawMessage `json:"parent,omitempty"`
}

// servedReport is the served row of the paper-scale section. Parent,
// when the output file already holds one, is carried over unchanged:
// the server's call at the commit before the candidate count
// (TranslateContext, printing every candidate and the top one again),
// measured by the same harness.
type servedReport struct {
	Top         int             `json:"top"`
	EqualOutput bool            `json:"equal_to_full_prefix"`
	Runs        []paperRun      `json:"runs"`
	Parent      json.RawMessage `json:"parent,omitempty"`
}

// runPaperScale builds the paper-scale tenant and measures iters passes
// over its questions at GOMAXPROCS 1 and at the process's GOMAXPROCS.
func runPaperScale(iters int) (*paperReport, error) {
	tn := newSpiderTenant(paperTrain+1+paperHeld, paperPoolCap)
	examples, opts := tn.examples, tn.opts
	fmt.Fprintln(os.Stderr, "bench: building the paper-scale tenant...")
	sys := tn.system()
	sys.Prepare(tn.samples)
	if err := sys.Train(examples[:paperTrain]); err != nil {
		return nil, err
	}
	questions := make([]string, 0, paperQuestions)
	for _, ex := range examples[paperTrain:min(len(examples), paperTrain+paperQuestions)] {
		questions = append(questions, ex.NL)
	}

	report := &paperReport{
		Database: tn.db, PoolSize: sys.PoolSize(), RetrievalK: opts.RetrievalK,
		Questions: len(questions), Iters: iters, EqualOutput: true,
		Served: &servedReport{Top: servedTop, EqualOutput: true},
	}
	ctx := context.Background()
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	settings := []int{1}
	if procs > 1 {
		settings = append(settings, procs)
	}
	var want []string
	for _, p := range settings {
		runtime.GOMAXPROCS(p)
		keys := make([]string, len(questions))
		for i, q := range questions {
			key, err := rankedKey(ctx, sys, q, 0)
			if err != nil {
				return nil, err
			}
			keys[i] = key
			served, err := rankedKey(ctx, sys, q, servedTop)
			if err != nil {
				return nil, err
			}
			if !strings.HasPrefix(key, served) || strings.Count(served, "\n") != min(servedTop, strings.Count(key, "\n")) {
				return nil, fmt.Errorf("bench: paper-scale served candidates at GOMAXPROCS %d are not the first %d of the full list for %q", p, servedTop, q)
			}
		}
		if want == nil {
			want = keys
		}
		for i := range keys {
			if keys[i] != want[i] {
				return nil, fmt.Errorf("bench: paper-scale ranked output at GOMAXPROCS %d diverged for %q", p, questions[i])
			}
		}
		fmt.Fprintf(os.Stderr, "bench: measuring paper-scale cache misses at GOMAXPROCS %d...\n", p)
		var failed error
		stats := measure(iters, questions, func(nl string) {
			if _, err := sys.TranslateContext(ctx, nl); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			return nil, failed
		}
		report.Runs = append(report.Runs, paperRun{GOMAXPROCS: p, benchStats: stats})

		fmt.Fprintf(os.Stderr, "bench: measuring paper-scale served calls at GOMAXPROCS %d...\n", p)
		var printed string
		stats = measure(iters, questions, func(nl string) {
			tr, err := sys.TranslateTopContext(ctx, nl, servedTop)
			if err != nil {
				if failed == nil {
					failed = err
				}
				return
			}
			for _, c := range tr.Ranked {
				printed = c.SQL.String()
			}
		})
		if failed != nil {
			return nil, failed
		}
		if printed == "" {
			return nil, fmt.Errorf("bench: paper-scale served calls printed nothing")
		}
		report.Served.Runs = append(report.Served.Runs, paperRun{GOMAXPROCS: p, benchStats: stats})
	}
	return report, nil
}
