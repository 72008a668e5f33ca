package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ltr"
)

// topSuite is one database the top-n contract is checked on: how to
// build a trained system under given options, and the questions to ask.
type topSuite struct {
	name      string
	build     func(opts core.Options) *core.System
	questions []string
}

// employeeTopSuite is the employee database with content, so the
// questions' literals fill and the exec guide's instance has rows.
func employeeTopSuite(t *testing.T) topSuite {
	return topSuite{
		name: "employee",
		build: func(opts core.Options) *core.System {
			sys := trainedSystem(t, opts)
			in := engine.NewInstance(sys.DB)
			n, s := engine.Num, engine.Str
			in.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
			in.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
			sys.SetContent(in)
			return sys
		},
		questions: []string{
			"which employees live in Madrid or Austin",
			"which employees are older than 30",
			"what is the age of employees living in Austin",
			"who is the oldest employee",
			"which shop has the most products",
			"how many employees live in each city",
			"find the name of the employee who got the highest one time bonus",
		},
	}
}

// spiderTopSuite is a SPIDER-like tenant shaped like a fleet tenant: a
// pool cap of 2,000, its content, models trained once on its first 60
// pairs with the serve defaults and deployed on every system; the
// questions are the held-out pairs after those.
func spiderTopSuite(t *testing.T) topSuite {
	const train, held = 60, 40
	bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, TrainPerDB: train + held, ValDBs: 1, ValPerDB: 1, Seed: 1})
	db := datasets.DBNames(bench.Train)[0]
	bundle := bench.Bundle(db)
	samples := datasets.GoldQueries(bench.Train, db)
	var examples []ltr.Example
	for _, it := range bench.Train {
		if it.DB == db {
			examples = append(examples, ltr.Example{NL: it.NL, Gold: it.Gold})
		}
	}
	base := core.Options{GeneralizeSize: 2000, RetrievalK: 100, Seed: 1, EncoderEpochs: 14, RerankEpochs: 40}
	prepare := func(opts core.Options) *core.System {
		sys := core.New(bundle.Schema, opts)
		sys.SetContent(bundle.Content)
		sys.Prepare(samples)
		return sys
	}
	first := prepare(base)
	models, err := core.TrainModels([]core.TrainingSet{{Sys: first, Examples: examples[:train]}}, base)
	if err != nil {
		t.Fatal(err)
	}
	suite := topSuite{
		name: "spider",
		build: func(opts core.Options) *core.System {
			o := base
			o.ExecGuide, o.NoCache = opts.ExecGuide, opts.NoCache
			sys := prepare(o)
			if err := sys.UseModels(models); err != nil {
				t.Fatal(err)
			}
			return sys
		},
	}
	for _, ex := range examples[train:] {
		suite.questions = append(suite.questions, ex.NL)
	}
	return suite
}

// firstN is the full translation cut to its first n candidates, the
// answer TranslateTopContext must give.
func firstN(full *core.Translation, n int) *core.Translation {
	cut := *full
	cut.Ranked = full.Ranked[:min(n, len(full.Ranked))]
	if len(cut.Ranked) == 0 {
		cut.Ranked = nil
	}
	return &cut
}

// checkTop asks sys for the n best candidates of nl and compares them,
// with Degraded, Warnings and Verdicts, with the first n of want.
func checkTop(t *testing.T, what string, sys *core.System, nl string, n int, want *core.Translation) {
	t.Helper()
	got, err := sys.TranslateTopContext(context.Background(), nl, n)
	if err != nil {
		t.Fatalf("%s n=%d %q: %v", what, n, nl, err)
	}
	if w, g := renderTranslation(firstN(want, n)), renderTranslation(got); g != w {
		t.Fatalf("%s n=%d %q: not the first %d of the full answer:\n--- want ---\n%s\n--- got ---\n%s", what, n, nl, n, w, g)
	}
	if len(got.Ranked) > 0 && got.Top != &got.Ranked[0] {
		t.Fatalf("%s n=%d %q: Top is not the first returned candidate", what, n, nl)
	}
}

// TestTranslateTopMatchesFull pins TranslateTopContext's contract: its
// answer of n is the first min(n, len) candidates of TranslateContext's
// (printed SQL, dialect and score bits) with the same Degraded,
// Warnings and Verdicts, with the exec guide off and on and with and
// without the translation cache, for n of 1, 5, ExecTopK + 1 (the
// guide executes ExecTopK, so an answer filled only as far as n would
// show) and more than the list holds. A cache entry written by an n = 5
// call serves a later full call the list a cache-less miss gives, and a
// failing post-processing stage degrades an answer of n to the first n
// of the degraded full answer.
func TestTranslateTopMatchesFull(t *testing.T) {
	suites := []topSuite{employeeTopSuite(t)}
	if !testing.Short() {
		suites = append(suites, spiderTopSuite(t))
	}
	ctx := context.Background()
	for _, suite := range suites {
		for _, guided := range []bool{false, true} {
			what := suite.name
			if guided {
				what += " guided"
			}
			cold := suite.build(core.Options{ExecGuide: guided, NoCache: true})
			cached := suite.build(core.Options{ExecGuide: guided})
			ns := []int{1, 5, cold.Opts.ExecTopK + 1}
			sawVerdicts := false
			for _, nl := range suite.questions {
				full, err := cold.TranslateContext(ctx, nl)
				if err != nil {
					t.Fatal(err)
				}
				sawVerdicts = sawVerdicts || len(full.Verdicts) > 0
				for _, n := range append(ns, len(full.Ranked)+1) {
					checkTop(t, what+" cache-less", cold, nl, n, full)
				}
				// The n = 5 miss writes the entry every later call hits.
				checkTop(t, what+" cached miss", cached, nl, 5, full)
				hit, err := cached.TranslateContext(ctx, nl)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderTranslation(hit), renderTranslation(full); g != w {
					t.Fatalf("%s %q: a full hit on an n = 5 entry differs from a cache-less miss:\n--- want ---\n%s\n--- got ---\n%s", what, nl, w, g)
				}
				for _, n := range append(ns, len(full.Ranked)+1) {
					checkTop(t, what+" cached hit", cached, nl, n, full)
				}
			}
			if st := cached.CacheStats().Translations; st.Misses != uint64(len(suite.questions)) {
				t.Errorf("%s: %d translation cache misses, want one per question (%d)", what, st.Misses, len(suite.questions))
			}
			if sawVerdicts != guided {
				t.Errorf("%s: verdicts seen = %v", what, sawVerdicts)
			}

			cold.SetFaultInjector(faults.NewInjector(1).Fail(faults.Postprocess, errors.New("injected post-processing fault")))
			for _, nl := range suite.questions {
				full, err := cold.TranslateContext(ctx, nl)
				if err != nil {
					t.Fatal(err)
				}
				if !full.Degraded {
					t.Fatalf("%s %q: post-processing fault did not degrade", what, nl)
				}
				for _, n := range append(ns, len(full.Ranked)+1) {
					checkTop(t, what+" degraded", cold, nl, n, full)
				}
			}
		}
	}
}
