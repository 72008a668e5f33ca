package fleet_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// TestFleetMemoryGovernance pins the fleet half of resource
// governance: resident tenants account their snapshots and caches
// against per-tenant shares of one process budget, /healthz surfaces
// the accounting at both levels, and the flush-before-evict sequence
// returns every evicted byte to the shared root — activation of a new
// tenant does not ratchet the process footprint up.
func TestFleetMemoryGovernance(t *testing.T) {
	src := newTestSource(t)
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{
		MaxActive:      2,
		StateDir:       stateDir,
		MemLimit:       64 << 20,
		TenantMemLimit: 16 << 20,
	})
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const q = "which item has the largest quantity"
	if _, err := translateVia(ctx, reg, "alpha", q); err != nil {
		t.Fatal(err)
	}
	if _, err := translateVia(ctx, reg, "beta", q); err != nil {
		t.Fatal(err)
	}

	h := reg.Health()
	if h.Memory == nil || h.Memory.Limit != 64<<20 {
		t.Fatalf("fleet memory block = %+v", h.Memory)
	}
	usedTwo := h.Memory.Used
	if usedTwo <= 0 {
		t.Fatalf("no bytes accounted with two resident tenants")
	}
	alpha := h.Tenants["alpha"]
	if alpha.Memory == nil {
		t.Fatal("resident tenant row lacks memory block")
	}
	if alpha.Memory.Budget == nil || alpha.Memory.Budget.Limit != 16<<20 {
		t.Fatalf("tenant budget = %+v", alpha.Memory.Budget)
	}
	if alpha.Memory.SnapshotBytes <= 0 || alpha.Memory.Budget.Used <= 0 {
		t.Fatalf("tenant accounting empty: %+v", alpha.Memory)
	}
	if alpha.Memory.Degraded {
		t.Fatalf("roomy tenant share degraded: %q", alpha.Memory.DegradeReason)
	}
	alphaUsed := alpha.Memory.Budget.Used

	// Activating gamma evicts alpha (the LRU tenant). The eviction
	// must give alpha's bytes back: the root's usage stays at the
	// two-resident level instead of accumulating a third tenant.
	if _, err := translateVia(ctx, reg, "gamma", q); err != nil {
		t.Fatal(err)
	}
	h = reg.Health()
	if row := h.Tenants["alpha"]; row.State != "cold" {
		t.Fatalf("alpha not evicted: %+v", row)
	} else if row.Memory != nil {
		t.Fatalf("cold tenant still reports memory: %+v", row.Memory)
	}
	if h.Memory.Used > usedTwo+alphaUsed/2 {
		t.Fatalf("eviction leaked memory: used %d with two residents, %d after evict+activate",
			usedTwo, h.Memory.Used)
	}

	// Warm-reactivating alpha re-accounts its snapshot from the
	// checkpoint restore path — same budget discipline as a cold build.
	if _, err := translateVia(ctx, reg, "alpha", q); err != nil {
		t.Fatal(err)
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || row.Memory.SnapshotBytes <= 0 {
		t.Fatalf("warm-started tenant not re-accounted: %+v", row.Memory)
	}
	if used := reg.Health().Memory.Used; used <= 0 || used > 64<<20 {
		t.Fatalf("root accounting out of range after churn: %d", used)
	}
}

// TestFleetTenantBudgetPressure pins graceful degradation inside one
// tenant share: a share too small for the full pool truncates that
// tenant's pool — the tenant serves degraded, the fleet roll-up says
// degraded — while translations keep answering.
func TestFleetTenantBudgetPressure(t *testing.T) {
	src := newTestSource(t)
	reg := fleet.New(src, fleet.Config{
		MaxActive:      2,
		StateDir:       t.TempDir(),
		MemLimit:       64 << 20,
		TenantMemLimit: tenantPressureLimit,
	})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := translateVia(ctx, reg, "alpha", "how many items are there")
	if err != nil {
		t.Fatalf("pressured tenant cannot translate: %v", err)
	}
	if res.SQL == "" {
		t.Fatal("pressured tenant returned empty SQL")
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || !row.Memory.Degraded {
		t.Fatalf("pressure not flagged: %+v", row.Memory)
	}
	if row.Status != "degraded" {
		t.Fatalf("tenant status = %q, want degraded", row.Status)
	}
	if row.Memory.Budget.Used > row.Memory.Budget.Limit {
		t.Fatalf("tenant budget overrun: %+v", row.Memory.Budget)
	}
	if h := reg.Health(); h.Status != "degraded" {
		t.Fatalf("fleet status = %q, want degraded", h.Status)
	}
}

// tenantPressureLimit is a share well below the fixture pool's full
// footprint (~15KB snapshot), so activation must shed candidates to
// fit instead of failing outright.
const tenantPressureLimit = 10 << 10

// TestFleetSpillWithoutStateDir: a memory-governed registry without a
// StateDir spills pool builds under a process-private temp root instead
// of truncating them: the pool builds spilled and undegraded, answers
// like an unbudgeted build, and Shutdown removes the root.
func TestFleetSpillWithoutStateDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // the spill root goes here, where the test can see it
	opts := fleetOpts()
	opts.SpillBufferBytes = 512 // far below the fixture pool: forces spill runs
	src := newTestSource(t)
	src.opts = opts
	reg := fleet.New(src, fleet.Config{MaxActive: 2, MemLimit: 64 << 20})
	plain := fleet.New(newTestSource(t), fleet.Config{MaxActive: 2})
	for _, r := range []*fleet.Registry{reg, plain} {
		if err := r.Register("alpha"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	t.Cleanup(func() { _ = plain.Shutdown(ctx) })
	for _, q := range []string{"how many items are there", "which item has the largest quantity", "list the item labels"} {
		got, err := translateVia(ctx, reg, "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := translateVia(ctx, plain, "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		if got.SQL != want.SQL || got.Generation != want.Generation || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("%q: spilled build answered %q gen %d (%d candidates), unbudgeted %q gen %d (%d)", q,
				got.SQL, got.Generation, len(got.Candidates), want.SQL, want.Generation, len(want.Candidates))
		}
		for i := range got.Candidates {
			if got.Candidates[i] != want.Candidates[i] {
				t.Fatalf("%q candidate %d: spilled %+v, unbudgeted %+v", q, i, got.Candidates[i], want.Candidates[i])
			}
		}
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || row.Memory.SpillFiles == 0 || row.Memory.Degraded {
		t.Fatalf("memory row = %+v, want a spilled, undegraded build", row.Memory)
	}
	if row.Pool != mustPool(t, plain, "alpha") {
		t.Fatalf("spilled pool %d, unbudgeted pool %d", row.Pool, mustPool(t, plain, "alpha"))
	}

	if roots, _ := filepath.Glob(filepath.Join(tmp, "gar-spill-*", "alpha")); len(roots) != 1 {
		t.Fatalf("tenant spill directories under the temp root: %v, want one", roots)
	}
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("Shutdown left %d entries in the temp directory", len(left))
	}
}

func mustPool(t *testing.T, reg *fleet.Registry, name string) int {
	t.Helper()
	row, err := reg.TenantHealth(name)
	if err != nil {
		t.Fatal(err)
	}
	return row.Pool
}
