// Command garbench regenerates every table and figure of the GAR paper's
// evaluation section on the generated benchmarks and prints them in the
// paper's format. Experiment ids: table1, table3, table4, table5,
// table6, table7, table8, table9, fig9, fig10, fig11, fig12.
//
// Beyond the paper's artifacts, two extra experiments are available:
// "extensions" (the §VII future-work directions) and "rules" (the
// Algorithm 1 recomposition-rule ablation).
//
// Usage:
//
//	garbench [-scale small|full] [-exp id[,id...]] [-seed n]
//	garbench -bench translate|restore|build [-iters n] [-benchout file]
//	garbench -baseline [-write]    # translation-quality gate / ratchet
//
// -bench build times a tenant's cold build stage by stage at pool cap
// 2,000, and also at 6,000 with -scale full.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	scale := flag.String("scale", "small", "experiment scale: small or full (-bench build: full adds the 6,000-candidate pool)")
	exp := flag.String("exp", "all", "comma-separated experiment ids (or 'all')")
	seed := flag.Int64("seed", 0, "override the benchmark seed (0 keeps the default)")
	bench := flag.String("bench", "", "run a micro-benchmark instead of experiments (id: translate, restore, build)")
	iters := flag.Int("iters", 5, "benchmark iterations over the question set (restore: restores, build: builds per GOMAXPROCS setting)")
	benchOut := flag.String("benchout", "", "benchmark JSON output path (default BENCH_<id>.json)")
	baseline := flag.Bool("baseline", false, "run the translation-quality gate against the committed baseline")
	baselineFile := flag.String("baselinefile", "BASELINE_quality.json", "committed quality-baseline path")
	baselineWrite := flag.Bool("write", false, "with -baseline: ratchet the baseline file from current measurements")
	baselineDiffOut := flag.String("baselinediff", "BASELINE_quality_diff.json", "with -baseline: diff artifact written on gate failure")
	flag.Parse()

	if *baseline {
		if err := runQualityBaseline(*baselineFile, *baselineWrite, *baselineDiffOut); err != nil {
			fmt.Fprintf(os.Stderr, "qualgate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *bench != "" {
		out := *benchOut
		if out == "" {
			out = "BENCH_" + *bench + ".json"
		}
		var err error
		switch *bench {
		case "translate":
			err = runTranslateBench(*iters, out)
		case "restore":
			err = runRestoreBench(*iters, out)
		case "build":
			err = runBuildBench(*iters, *scale == "full", out)
		default:
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (want: translate, restore, build)\n", *bench)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.Small()
	if *scale == "full" {
		cfg = experiments.Full()
	}
	if *seed != 0 {
		cfg.Seed = *seed
		cfg.GAR.Seed = *seed
	}
	lab := experiments.NewLab(cfg)

	wanted := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	all := wanted["all"]

	type tableExp struct {
		id  string
		run func() (*report.Table, error)
	}
	type textExp struct {
		id  string
		run func() (string, error)
	}
	tables := []tableExp{
		{"table1", lab.Table1}, {"table3", lab.Table3}, {"table4", lab.Table4},
		{"table5", lab.Table5}, {"table6", lab.Table6}, {"table7", lab.Table7},
		{"table8", lab.Table8}, {"table9", lab.Table9}, {"fig10", lab.Fig10},
		{"extensions", lab.Extensions}, {"rules", lab.RuleAblation},
	}
	texts := []textExp{
		{"fig9", lab.Fig9}, {"fig11", lab.Fig11}, {"fig12", lab.Fig12},
	}
	order := []string{"table1", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9", "fig9", "fig10", "fig11", "fig12",
		"extensions", "rules"}

	for _, id := range order {
		if !all && !wanted[id] {
			continue
		}
		start := time.Now()
		done := false
		for _, e := range tables {
			if e.id == id {
				t, err := e.run()
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
					os.Exit(1)
				}
				fmt.Println(t.Render())
				done = true
			}
		}
		for _, e := range texts {
			if e.id == id {
				s, err := e.run()
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
					os.Exit(1)
				}
				fmt.Println(s)
				done = true
			}
		}
		if done {
			fmt.Printf("[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
