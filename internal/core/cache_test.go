package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
)

var errInjected = errors.New("injected retrieval fault")

// sameTranslation compares two translations candidate by candidate,
// including scores — the cached answer must be indistinguishable from a
// recomputed one.
func sameTranslation(t *testing.T, a, b *core.Translation) {
	t.Helper()
	if a.Generation != b.Generation {
		t.Fatalf("generations differ: %d vs %d", a.Generation, b.Generation)
	}
	if len(a.Ranked) != len(b.Ranked) {
		t.Fatalf("ranked lengths differ: %d vs %d", len(a.Ranked), len(b.Ranked))
	}
	for i := range a.Ranked {
		if a.Ranked[i].SQL.String() != b.Ranked[i].SQL.String() ||
			a.Ranked[i].Dialect != b.Ranked[i].Dialect ||
			a.Ranked[i].Score != b.Ranked[i].Score {
			t.Fatalf("rank %d differs:\n %+v\n %+v", i, a.Ranked[i], b.Ranked[i])
		}
	}
}

func TestTranslateCacheHit(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	nl := "how many employees are there"
	first, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	sameTranslation(t, first, second)
	st := sys.CacheStats()
	if st.Translations.Hits != 1 || st.Translations.Misses != 1 {
		t.Errorf("translation cache stats = %+v", st.Translations)
	}
	// The two results must not alias: truncating one leaves the other
	// (and the cache's copy) intact.
	first.Ranked = first.Ranked[:0]
	third, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	sameTranslation(t, second, third)
}

// TestCacheKeyedByPublication: a model redeploy publishes at the same
// generation, and a translation that loaded the outgoing snapshot may
// write its entry after UseModels purged the cache. That entry must not
// be served on the new snapshot: every translation there answers as an
// uncached system with the new models does.
func TestCacheKeyedByPublication(t *testing.T) {
	sys, _ := swapSystem(t, core.Options{})
	seeded := sys.Opts
	seeded.Seed = 7
	other, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, seeded)
	if err != nil {
		t.Fatal(err)
	}
	opts := sys.Opts
	opts.NoCache = true
	ref := core.New(sys.DB, opts)
	ref.Prepare(employeeSamples())
	if err := ref.UseModels(other); err != nil {
		t.Fatal(err)
	}

	const nl = "who is the oldest employee"
	outgoing := core.Pinned(sys, nl)
	old, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	gen := sys.Generation()
	if err := sys.UseModels(other); err != nil {
		t.Fatal(err)
	}
	if sys.Generation() != gen {
		t.Fatalf("UseModels moved the generation %d -> %d; the test needs a same-generation publication", gen, sys.Generation())
	}
	// The in-flight translation of the outgoing snapshot finishes now,
	// after the purge, and caches its answer.
	if _, err := outgoing(); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	if renderTranslation(want) == renderTranslation(old) {
		t.Fatal("differently seeded models answer as the outgoing ones; the test cannot tell a stale entry")
	}
	hits := sys.CacheStats().Translations.Hits
	for i := 0; i < 2; i++ { // a miss on the new snapshot, then its own hit
		got, err := sys.Translate(nl)
		if err != nil {
			t.Fatal(err)
		}
		if renderTranslation(got) != renderTranslation(want) {
			t.Fatalf("translation %d on the new snapshot:\n%s\nan uncached system with the new models:\n%s",
				i, renderTranslation(got), renderTranslation(want))
		}
	}
	if got := sys.CacheStats().Translations.Hits - hits; got != 1 {
		t.Errorf("%d cache hits on the new snapshot, want 1 (its own entry)", got)
	}
}

func TestCacheInvalidatedBySwap(t *testing.T) {
	sys, models := swapSystem(t, core.Options{})
	nl := "how many employees are there"
	first, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := rebuild(sys, employeeSamples()[:5], models)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Translate(nl)
	if err != nil {
		t.Fatal(err)
	}
	if second.Generation != gen {
		t.Fatalf("post-swap translation served generation %d, want %d", second.Generation, gen)
	}
	if first.Generation == second.Generation {
		t.Fatal("swap did not change the generation")
	}
	if st := sys.CacheStats(); st.Translations.Hits != 0 {
		t.Errorf("stale entry served across swap: %+v", st.Translations)
	}
}

func TestNoCacheOption(t *testing.T) {
	sys := trainedSystem(t, core.Options{NoCache: true})
	nl := "how many employees are there"
	for i := 0; i < 2; i++ {
		if _, err := sys.Translate(nl); err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.CacheStats(); st != (core.CacheStats{}) {
		t.Errorf("NoCache system reported cache activity: %+v", st)
	}
}

func TestFaultInjectorBypassesCache(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	nl := "how many employees are there"
	if _, err := sys.Translate(nl); err != nil {
		t.Fatal(err)
	}
	// With an injector killing retrieval, the cached answer must NOT be
	// served: the harness is probing the live path.
	inj := faults.NewInjector(1).Fail(faults.Retrieval, errInjected)
	sys.SetFaultInjector(inj)
	if _, err := sys.TranslateContext(context.Background(), nl); err == nil {
		t.Fatal("injected retrieval fault was masked by the cache")
	}
	// Removing the injector purges and re-enables the caches.
	sys.SetFaultInjector(nil)
	if _, err := sys.Translate(nl); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHitEqualsMiss pins the by-reference translation cache: a hit
// re-fills the cached pool ids from the same snapshot and must return
// exactly the translation the miss produced — SQL text (including
// filled values, two of them equally long), dialects, bit-exact
// scores, verdicts and generation — with and without execution
// guidance, and must not alias the cache's entry.
func TestCacheHitEqualsMiss(t *testing.T) {
	questions := []string{
		"which employees live in Madrid or Austin",
		"which employees live in Austin or Madrid",
		"which employees are older than 30",
		"what is the age of employees living in Austin",
		"who is the oldest employee",
		"which shop has the most products",
	}
	for _, guided := range []bool{false, true} {
		sys := trainedSystem(t, core.Options{ExecGuide: guided})
		in := engine.NewInstance(sys.DB)
		n, s := engine.Num, engine.Str
		in.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
		in.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
		sys.SetContent(in)
		sawVerdicts := false
		for i, nl := range questions {
			miss, err := sys.Translate(nl)
			if err != nil {
				t.Fatal(err)
			}
			hit, err := sys.Translate(nl)
			if err != nil {
				t.Fatal(err)
			}
			// Each question hits twice: hit, then again below.
			if st := sys.CacheStats().Translations; st.Hits != uint64(2*i+1) {
				t.Fatalf("guided=%v %q: %d cache hits, want %d", guided, nl, st.Hits, 2*i+1)
			}
			want := renderTranslation(miss)
			if got := renderTranslation(hit); got != want {
				t.Errorf("guided=%v %q: hit differs from miss:\n%s\n---\n%s", guided, nl, got, want)
			}
			if hit.Top != &hit.Ranked[0] {
				t.Errorf("guided=%v %q: Top is not the first ranked candidate", guided, nl)
			}
			sawVerdicts = sawVerdicts || len(hit.Verdicts) > 0
			hit.Ranked[0].Score++
			if len(hit.Verdicts) > 0 {
				hit.Verdicts[0].Rows++
			}
			again, err := sys.Translate(nl)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderTranslation(again); got != want {
				t.Errorf("guided=%v %q: a served hit aliased the cache entry", guided, nl)
			}
		}
		if guided != sawVerdicts {
			t.Errorf("guided=%v but verdicts seen = %v", guided, sawVerdicts)
		}
	}
}
