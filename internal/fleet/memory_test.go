package fleet_test

import (
	"context"
	"fmt"
	"os"
	"slices"
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

// TestFleetMemLimitWithoutStateDir: a memory-governed registry without
// a StateDir builds the full pool: undegraded, charged to the tenant's
// share, answering like an unbudgeted build, and writing nothing to
// disk.
func TestFleetMemLimitWithoutStateDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // any scratch file would land here
	reg := fleet.New(newTestSource(t), fleet.Config{MaxActive: 2, MemLimit: 64 << 20})
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
			t.Fatalf("%q: governed build answered %q gen %d (%d candidates), unbudgeted %q gen %d (%d)", q,
				got.SQL, got.Generation, len(got.Candidates), want.SQL, want.Generation, len(want.Candidates))
		}
		for i := range got.Candidates {
			if got.Candidates[i] != want.Candidates[i] {
				t.Fatalf("%q candidate %d: governed %+v, unbudgeted %+v", q, i, got.Candidates[i], want.Candidates[i])
			}
		}
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || row.Memory.Budget == nil || row.Memory.Budget.Used <= 0 || row.Memory.Degraded {
		t.Fatalf("memory row = %+v, want a charged, undegraded build", row.Memory)
	}
	if row.Pool != mustPool(t, plain, "alpha") {
		t.Fatalf("governed pool %d, unbudgeted pool %d", row.Pool, mustPool(t, plain, "alpha"))
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

// TestFleetReloadHoldsOneSnapshot is the fleet twin of core's
// TestSwapHoldsOneSnapshotCharge: a budgeted tenant whose share holds
// one snapshot and ~15 % more reloads through Registry.Reload without
// degrading. The reload builds on a fork under its own budget, so the
// tenant's share never holds two snapshots: the generation advances by
// one, the pool and every answer are unchanged, and the tenant's
// budget holds exactly the snapshot's charge.
func TestFleetReloadHoldsOneSnapshot(t *testing.T) {
	src := newTestSource(t)
	ctx := context.Background()
	questions := []string{"which item has the largest quantity", "how many items are there", "what is the quantity of pens"}
	probe := fleet.New(src, fleet.Config{MaxActive: 1, MemLimit: 64 << 20, TenantMemLimit: 16 << 20})
	if err := probe.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := translateVia(ctx, probe, "alpha", questions[0]); err != nil {
		t.Fatal(err)
	}
	row, err := probe.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	snap := row.Memory.SnapshotBytes
	if err := probe.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	reg := fleet.New(src, fleet.Config{MaxActive: 1, MemLimit: 64 << 20, TenantMemLimit: snap + snap*15/100})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Shutdown(context.Background()) })
	answers := func() []string {
		var out []string
		for _, q := range questions {
			res, err := translateVia(ctx, reg, "alpha", q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %v %t", res.SQL, res.Candidates, res.Degraded))
		}
		return out
	}
	before := answers()
	row, err = reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := reg.Reload(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if gen != row.Generation+1 {
		t.Fatalf("reload published generation %d, want %d", gen, row.Generation+1)
	}
	after, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ms := after.Memory
	if ms.Degraded || ms.DegradedBuilds != 0 {
		t.Fatalf("reload of an unchanged spec degraded: %+v", ms)
	}
	if ms.SnapshotBytes != snap || ms.Budget.Used != ms.SnapshotBytes {
		t.Errorf("after reload: snapshot %d, used %d; want both %d", ms.SnapshotBytes, ms.Budget.Used, snap)
	}
	if ms.Budget.Peak > ms.Budget.Limit {
		t.Errorf("tenant peak %d over its limit %d", ms.Budget.Peak, ms.Budget.Limit)
	}
	if after.Pool != row.Pool {
		t.Errorf("reload changed the pool: %d -> %d candidates", row.Pool, after.Pool)
	}
	if got := answers(); !slices.Equal(got, before) {
		t.Errorf("answers changed across the reload:\n%v\nvs\n%v", got, before)
	}
}
