package gar_test

import (
	"testing"

	"repro/gar"
)

// TestMemoryGovernancePublicAPI pins the resource-governance surface of
// the public API: a system put under a budget by SetResources reports
// live gauges via MemStats, translates identically to an ungoverned
// system, and ReleaseMemory returns every accounted byte.
func TestMemoryGovernancePublicAPI(t *testing.T) {
	plain := trainedSystem(t)

	sys, err := gar.New(companyDB(), gar.Options{
		GeneralizeSize: 400, RetrievalK: 10, Seed: 5,
		EncoderEpochs: 10, RerankEpochs: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetResources(gar.NewMemBudget("system", 64<<20))
	if err := sys.Prepare(samples()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(examples()); err != nil {
		t.Fatal(err)
	}

	ms := sys.MemStats()
	if ms.Budget == nil || ms.Budget.Limit != 64<<20 {
		t.Fatalf("budget gauge = %+v", ms.Budget)
	}
	if ms.Budget.Used <= 0 || ms.SnapshotBytes <= 0 {
		t.Fatalf("nothing accounted: %+v", ms)
	}
	if ms.Degraded {
		t.Fatalf("roomy budget degraded: %q", ms.DegradeReason)
	}

	// Governance must not change answers: both systems agree.
	for _, q := range []string{"how many employees are there", "which employees are older than 30"} {
		want, err := plain.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.SQL != want.SQL {
			t.Errorf("governed translation diverged for %q: %q vs %q", q, got.SQL, want.SQL)
		}
	}

	sys.ReleaseMemory()
	if used := sys.MemStats().Budget.Used; used != 0 {
		t.Errorf("ReleaseMemory left %d bytes accounted", used)
	}
}

// TestSetResourcesSharedBudget pins the fleet-shaped wiring: two
// systems given Child shares of one NewMemBudget root both account
// against it, and releasing one returns exactly its share.
func TestSetResourcesSharedBudget(t *testing.T) {
	root := gar.NewMemBudget("process", 128<<20)
	build := func(name string) *gar.System {
		sys, err := gar.New(companyDB(), gar.Options{
			GeneralizeSize: 400, RetrievalK: 10, Seed: 5,
			EncoderEpochs: 10, RerankEpochs: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.SetResources(root.Child(name, 32<<20))
		if err := sys.Prepare(samples()); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a := build("a")
	afterA := root.Used()
	if afterA <= 0 {
		t.Fatal("first tenant accounted nothing against the root")
	}
	b := build("b")
	if root.Used() <= afterA {
		t.Fatal("second tenant accounted nothing against the root")
	}
	if bs := b.MemStats(); bs.Budget == nil || bs.Budget.Name != "b" {
		t.Fatalf("tenant budget gauge = %+v", bs.Budget)
	}

	a.ReleaseMemory()
	if got := root.Used(); got != b.MemStats().Budget.Used {
		t.Errorf("root holds %d bytes after releasing tenant a; tenant b accounts %d",
			got, b.MemStats().Budget.Used)
	}
}
