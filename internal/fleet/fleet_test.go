package fleet_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fleet"
)

// The fixture: every tenant is a tiny inventory database sharing one
// set of cross-database models, trained once per test binary — tenant
// activation then costs one Prepare plus one model deployment, which
// keeps multi-tenant tests fast.

func fleetOpts() gar.Options {
	return gar.Options{GeneralizeSize: 120, RetrievalK: 8, Seed: 1, EncoderEpochs: 6, RerankEpochs: 12}
}

func itemDB(name string) *gar.Database {
	db := gar.NewDatabase(name)
	db.AddTable("item", gar.Key("item_id"),
		gar.NumberColumn("item_id", "item id"),
		gar.TextColumn("label", "label"),
		gar.NumberColumn("qty", "quantity"))
	return db
}

func itemSamples() []string {
	return []string{
		"SELECT label FROM item",
		"SELECT COUNT(*) FROM item",
		"SELECT label FROM item ORDER BY qty DESC LIMIT 1",
		"SELECT qty FROM item WHERE label = 'pen'",
	}
}

func itemExamples() []gar.Example {
	return []gar.Example{
		{Question: "list the item labels", SQL: "SELECT label FROM item"},
		{Question: "how many items are there", SQL: "SELECT COUNT(*) FROM item"},
		{Question: "which item has the largest quantity", SQL: "SELECT label FROM item ORDER BY qty DESC LIMIT 1"},
		{Question: "what is the quantity of pens", SQL: "SELECT qty FROM item WHERE label = 'pen'"},
	}
}

var (
	modelsOnce sync.Once
	models     *gar.Models
	modelsErr  error
)

func trainedModels(t *testing.T) *gar.Models {
	t.Helper()
	modelsOnce.Do(func() {
		sys, err := gar.New(itemDB("trainer"), fleetOpts())
		if err == nil {
			err = sys.Prepare(itemSamples())
		}
		if err != nil {
			modelsErr = err
			return
		}
		models, modelsErr = gar.TrainModels(
			[]gar.TrainingSet{{System: sys, Examples: itemExamples()}}, fleetOpts())
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return models
}

// testSource implements fleet.Source over the fixture, with knobs for
// failure injection and deterministic stalls.
type testSource struct {
	opts   gar.Options
	models *gar.Models

	mu            sync.Mutex
	deploys       map[string]int
	deployErr     map[string]error
	deployGate    chan struct{}            // when set, Deploy parks until closed
	reloadGate    map[string]chan struct{} // when set for a tenant, Reload parks
	reloadEntered chan string              // Reload announces itself before parking
	reloadCount   map[string]int
}

func newTestSource(t *testing.T) *testSource {
	return &testSource{
		opts:          fleetOpts(),
		models:        trainedModels(t),
		deploys:       map[string]int{},
		deployErr:     map[string]error{},
		reloadGate:    map[string]chan struct{}{},
		reloadEntered: make(chan string, 8),
		reloadCount:   map[string]int{},
	}
}

func (s *testSource) Cold(name string) (*gar.System, error) {
	return gar.New(itemDB(name), s.opts)
}

func (s *testSource) Deploy(ctx context.Context, name string, sys *gar.System) (bool, error) {
	s.mu.Lock()
	s.deploys[name]++
	err := s.deployErr[name]
	gate := s.deployGate
	s.mu.Unlock()
	if gate != nil {
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-gate:
		}
	}
	if err != nil {
		return false, err
	}
	if err := s.deploy(sys); err != nil {
		return false, err
	}
	return true, nil
}

// deploy prepares the fixture's pool on sys and deploys the shared
// models: a cold build, and the build a reload runs on the live
// system's fork.
func (s *testSource) deploy(sys *gar.System) error {
	if err := sys.Prepare(itemSamples()); err != nil {
		return err
	}
	return sys.UseModels(s.models)
}

func (s *testSource) Reload(ctx context.Context, name string, sys *gar.System) error {
	s.mu.Lock()
	gate := s.reloadGate[name]
	s.mu.Unlock()
	if gate != nil {
		s.reloadEntered <- name
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate:
		}
	}
	if _, err := sys.Rebuild(s.deploy); err != nil {
		return err
	}
	s.mu.Lock()
	s.reloadCount[name]++
	s.mu.Unlock()
	return nil
}

func (s *testSource) deployCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deploys[name]
}

// translateVia follows the serving path: pin the tenant, pass its
// admission controller, translate.
func translateVia(ctx context.Context, reg *fleet.Registry, tenant, question string) (*gar.Result, error) {
	h, err := reg.Acquire(ctx, tenant)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	release, err := h.Admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return h.Sys().TranslateContext(ctx, question)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetActivateTranslateHealth(t *testing.T) {
	src := newTestSource(t)
	reg := fleet.New(src, fleet.Config{MaxActive: 4})
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("alpha"); err == nil {
		t.Fatal("double registration accepted")
	}
	if err := reg.Register("../escape"); err == nil {
		t.Fatal("path-escaping tenant name accepted")
	}
	if got := reg.Names(); len(got) != 3 || got[0] != "alpha" {
		t.Fatalf("Names = %v", got)
	}
	ctx := context.Background()
	if _, err := translateVia(ctx, reg, "nosuch", "how many items are there"); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v", err)
	}
	if reg.AnyReady() {
		t.Fatal("ready before any activation")
	}
	res, err := translateVia(ctx, reg, "alpha", "how many items are there")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := gar.ExactMatch(res.SQL, "SELECT COUNT(*) FROM item"); err != nil || !ok {
		t.Fatalf("translation wrong: %q (%v)", res.SQL, err)
	}
	if !reg.AnyReady() {
		t.Fatal("not ready after activation")
	}

	h := reg.Health()
	if h.Status != "ok" || h.Known != 3 || h.Active != 1 {
		t.Fatalf("fleet health = %+v", h)
	}
	row := h.Tenants["alpha"]
	if row.Status != "ok" || !row.Ready || row.Counters.Activations != 1 || row.Counters.ColdBuilds != 1 {
		t.Fatalf("alpha health = %+v", row)
	}
	if row.Admission.Admitted != 1 || row.Breaker == nil {
		t.Fatalf("alpha admission/breaker = %+v", row)
	}
	if cold := h.Tenants["beta"]; cold.Status != "cold" || cold.Ready {
		t.Fatalf("beta health = %+v", cold)
	}
	if _, err := reg.TenantHealth("nosuch"); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("TenantHealth unknown = %v", err)
	}
}

func TestFleetSingleFlightActivation(t *testing.T) {
	src := newTestSource(t)
	gate := make(chan struct{})
	src.mu.Lock()
	src.deployGate = gate
	src.mu.Unlock()
	reg := fleet.New(src, fleet.Config{MaxActive: 2})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}

	const stampede = 16
	errs := make(chan error, stampede)
	ctx := context.Background()
	for range stampede {
		go func() {
			_, err := translateVia(ctx, reg, "alpha", "how many items are there")
			errs <- err
		}()
	}
	// Everyone is parked on the same activation round; exactly one
	// Deploy must be running.
	waitFor(t, "the stampede to reach the gate", func() bool { return src.deployCount("alpha") == 1 })
	close(gate)
	for range stampede {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := src.deployCount("alpha"); n != 1 {
		t.Fatalf("stampede ran %d deploys, want 1", n)
	}
	if row := reg.Health().Tenants["alpha"]; row.Counters.Activations != 1 {
		t.Fatalf("activations = %d, want 1", row.Counters.Activations)
	}
}

func TestFleetLRUEvictionPreservesState(t *testing.T) {
	src := newTestSource(t)
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{MaxActive: 2, StateDir: stateDir})
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const q = "which item has the largest quantity"
	baseB, err := translateVia(ctx, reg, "beta", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := translateVia(ctx, reg, "alpha", q); err != nil {
		t.Fatal(err)
	}
	// beta is now the least-recently-used idle tenant; activating a
	// third must flush and evict it.
	if _, err := translateVia(ctx, reg, "gamma", q); err != nil {
		t.Fatal(err)
	}
	h := reg.Health()
	if h.Active != 2 {
		t.Fatalf("active = %d, want 2", h.Active)
	}
	if row := h.Tenants["beta"]; row.State != "cold" || row.Counters.Evictions != 1 {
		t.Fatalf("beta after eviction = %+v", row)
	}
	files, err := filepath.Glob(filepath.Join(stateDir, "beta", "gen-*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint flushed for evicted tenant (%v, %v)", files, err)
	}

	// Re-activation must warm-start from the checkpoint: same
	// generation, byte-identical answer, no second Deploy.
	again, err := translateVia(ctx, reg, "beta", q)
	if err != nil {
		t.Fatal(err)
	}
	if again.SQL != baseB.SQL || again.Generation != baseB.Generation {
		t.Fatalf("after warm start: %q gen %d, want %q gen %d",
			again.SQL, again.Generation, baseB.SQL, baseB.Generation)
	}
	row := reg.Health().Tenants["beta"]
	if row.Counters.WarmStarts != 1 || src.deployCount("beta") != 1 {
		t.Fatalf("beta warm start counters = %+v, deploys = %d", row.Counters, src.deployCount("beta"))
	}
}

func TestFleetSaturationSheds(t *testing.T) {
	src := newTestSource(t)
	reg := fleet.New(src, fleet.Config{MaxActive: 1, RetryAfter: 3 * time.Second})
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	h, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	// alpha is pinned: the working set is full with nothing evictable.
	_, err = reg.Acquire(ctx, "beta")
	var sat *fleet.SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("acquire on pinned full set = %v, want SaturatedError", err)
	}
	if sat.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter = %v", sat.RetryAfter)
	}
	if got := reg.Health().ShedSaturated; got == 0 {
		t.Fatal("saturation shed not counted")
	}
	h.Release()
	// With alpha released it becomes the LRU victim and beta activates.
	hb, err := reg.Acquire(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	hb.Release()
	if row := reg.Health().Tenants["alpha"]; row.State != "cold" || row.Counters.Evictions != 1 {
		t.Fatalf("alpha after LRU eviction = %+v", row)
	}
}

func TestFleetIdleEviction(t *testing.T) {
	src := newTestSource(t)
	var clockMu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{
		MaxActive: 4, IdleAfter: time.Minute, StateDir: stateDir, Clock: clock,
	})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := translateVia(ctx, reg, "alpha", "list the item labels"); err != nil {
		t.Fatal(err)
	}
	if n := reg.EvictIdle(ctx); n != 0 {
		t.Fatalf("evicted %d fresh tenants", n)
	}
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	if n := reg.EvictIdle(ctx); n != 1 {
		t.Fatalf("evicted %d idle tenants, want 1", n)
	}
	if row := reg.Health().Tenants["alpha"]; row.State != "cold" {
		t.Fatalf("alpha = %+v", row)
	}
	files, _ := filepath.Glob(filepath.Join(stateDir, "alpha", "gen-*.ckpt"))
	if len(files) == 0 {
		t.Fatal("idle eviction flushed nothing")
	}
}

func TestFleetActivationFailure(t *testing.T) {
	src := newTestSource(t)
	src.mu.Lock()
	src.deployErr["bad"] = fmt.Errorf("schema exploded")
	src.mu.Unlock()
	reg := fleet.New(src, fleet.Config{MaxActive: 4})
	for _, name := range []string{"bad", "good"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := translateVia(ctx, reg, "bad", "how many items are there"); err == nil || !strings.Contains(err.Error(), "schema exploded") {
		t.Fatalf("activation failure = %v", err)
	}
	// The failure is contained: the sibling serves, the fleet reports
	// degraded (a tenant is failing), and the slot was released.
	if _, err := translateVia(ctx, reg, "good", "how many items are there"); err != nil {
		t.Fatal(err)
	}
	h := reg.Health()
	if h.Status != "degraded" || h.Active != 1 {
		t.Fatalf("fleet health = %+v", h)
	}
	row := h.Tenants["bad"]
	if row.Counters.ActivationFailures != 1 || row.LastError == "" || row.State != "cold" {
		t.Fatalf("bad tenant = %+v", row)
	}
	// Clearing the fault lets the next request retry the activation.
	src.mu.Lock()
	delete(src.deployErr, "bad")
	src.mu.Unlock()
	if _, err := translateVia(ctx, reg, "bad", "how many items are there"); err != nil {
		t.Fatalf("retry after clearing fault: %v", err)
	}
	if reg.Health().Status != "ok" {
		t.Fatalf("fleet health after recovery = %+v", reg.Health())
	}
}

// TestFleetActivationFailureRunsOnce: an acquirer whose activation
// fails at once gets that round's error after exactly one build, not a
// second activation of the tenant the failed round left cold, and a
// later Acquire retries. Many tenants give the round many chances to
// settle before the acquirer looks again, and health readers
// contending for the tenants' locks widen that window.
func TestFleetActivationFailureRunsOnce(t *testing.T) {
	src := newTestSource(t)
	reg := fleet.New(src, fleet.Config{MaxActive: 2})
	const tenants = 24
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("bad%d", i)
		src.deployErr[name] = errors.New("deploy refused")
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() { close(stop); readers.Wait() }()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					reg.Health()
				}
			}
		}()
	}
	acquireFails := func(name string, want uint64) {
		t.Helper()
		if _, err := reg.Acquire(ctx, name); err == nil || !strings.Contains(err.Error(), "deploy refused") {
			t.Fatalf("Acquire(%s) = %v, want the deploy error", name, err)
		}
		row := reg.Health().Tenants[name]
		if row.Counters.ActivationFailures != want || src.deployCount(name) != int(want) || row.State != "cold" {
			t.Fatalf("%s after failed Acquire: %d deploys, tenant %+v, want %d activation(s)",
				name, src.deployCount(name), row, want)
		}
	}
	for i := 0; i < tenants; i++ {
		acquireFails(fmt.Sprintf("bad%d", i), 1)
	}
	acquireFails("bad0", 2)
	src.mu.Lock()
	delete(src.deployErr, "bad1")
	src.mu.Unlock()
	h, err := reg.Acquire(ctx, "bad1")
	if err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	h.Release()
	if n := src.deployCount("bad1"); n != 2 {
		t.Fatalf("bad1 deployed %d times, want 2", n)
	}
}

func TestFleetReloadScopedPerTenant(t *testing.T) {
	src := newTestSource(t)
	gate := make(chan struct{})
	src.mu.Lock()
	src.reloadGate["alpha"] = gate
	src.mu.Unlock()
	reg := fleet.New(src, fleet.Config{MaxActive: 4})
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, name := range []string{"alpha", "beta"} {
		if _, err := translateVia(ctx, reg, name, "how many items are there"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := reg.Reload(ctx, "alpha")
		done <- err
	}()
	<-src.reloadEntered // the first reload holds alpha's lock at the gate
	if _, err := reg.Reload(ctx, "alpha"); !errors.Is(err, fleet.ErrReloadInProgress) {
		t.Fatalf("concurrent reload of the same tenant = %v", err)
	}
	// A different tenant reloads in parallel, unaffected by alpha's
	// in-progress reload.
	if gen, err := reg.Reload(ctx, "beta"); err != nil || gen < 2 {
		t.Fatalf("beta reload = gen %d, %v", gen, err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if row := reg.Health().Tenants["alpha"]; row.Counters.Reloads != 1 || row.Generation < 2 {
		t.Fatalf("alpha after reload = %+v", row)
	}
}

func TestFleetShutdownDrainsAndFlushes(t *testing.T) {
	src := newTestSource(t)
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{MaxActive: 4, StateDir: stateDir})
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, name := range []string{"alpha", "beta"} {
		if _, err := translateVia(ctx, reg, name, "list the item labels"); err != nil {
			t.Fatal(err)
		}
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := reg.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		files, _ := filepath.Glob(filepath.Join(stateDir, name, "gen-*.ckpt"))
		if len(files) == 0 {
			t.Fatalf("tenant %s not flushed on shutdown", name)
		}
	}
	if _, err := reg.Acquire(ctx, "alpha"); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("acquire after shutdown = %v", err)
	}
	if err := reg.Shutdown(sctx); err != nil {
		t.Fatal("second shutdown not a no-op:", err)
	}
	// The flushed tree is a valid multi-tenant state dir.
	if entries, err := os.ReadDir(stateDir); err != nil || len(entries) != 2 {
		t.Fatalf("state tree = %v, %v", entries, err)
	}
}

// TestFleetEvictionSkipsCleanWarmStart: evicting a tenant that was
// warm-started from its checkpoint and never changed leaves the
// checkpoint file untouched — the incoming tenant does not wait on a
// rewrite of identical state — while evicting it after a reload writes
// the new generation.
func TestFleetEvictionSkipsCleanWarmStart(t *testing.T) {
	src := newTestSource(t)
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{MaxActive: 1, StateDir: stateDir})
	for _, name := range []string{"alpha", "beta"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const q = "which item has the largest quantity"
	use := func(name string) {
		t.Helper()
		if _, err := translateVia(ctx, reg, name, q); err != nil {
			t.Fatal(err)
		}
	}
	alphaFiles := func() map[string]os.FileInfo {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(stateDir, "alpha", "gen-*.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]os.FileInfo{}
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			out[f] = fi
		}
		return out
	}

	use("alpha")
	use("beta") // evicts alpha, which writes its cold-built state
	before := alphaFiles()
	if len(before) == 0 {
		t.Fatal("cold-built alpha was not checkpointed on eviction")
	}
	use("alpha") // warm start, evicts beta
	use("beta")  // evicts the untouched alpha
	if row := reg.Health().Tenants["alpha"]; row.Counters.WarmStarts != 1 || row.Counters.Evictions != 2 {
		t.Fatalf("alpha counters = %+v", row.Counters)
	}
	after := alphaFiles()
	if len(after) != len(before) {
		t.Fatalf("untouched alpha wrote a checkpoint: %d files, was %d", len(after), len(before))
	}
	for f, fi := range before {
		if !os.SameFile(fi, after[f]) {
			t.Fatalf("untouched alpha rewrote %s on eviction", f)
		}
	}

	use("alpha")
	if _, err := reg.Reload(ctx, "alpha"); err != nil {
		t.Fatal(err)
	}
	use("beta") // evicts the reloaded alpha
	if got := alphaFiles(); len(got) != len(before)+1 {
		t.Fatalf("reloaded alpha: %d checkpoint files, want %d", len(got), len(before)+1)
	}
}

// TestFleetFormat1CheckpointColdBuilds is the upgrade path: a tenant
// whose state directory holds only checkpoints of an earlier layout
// version (format 1, or format 2 before the re-rank feature table was
// stored) skips them as incompatible, cold-builds once, serves the
// same answer, and leaves a current-format checkpoint it warm-starts
// from next time. The old files span more generations than retention
// keeps, as a tenant reloaded before the upgrade leaves them: the cold
// build numbers above them, so pruning removes an old file rather than
// the new checkpoint.
func TestFleetFormat1CheckpointColdBuilds(t *testing.T) {
	for version := 1; version < checkpoint.Format; version++ {
		t.Run(fmt.Sprintf("format-%d", version), func(t *testing.T) { testOldFormatColdBuilds(t, version) })
	}
}

func testOldFormatColdBuilds(t *testing.T, version int) {
	src := newTestSource(t)
	stateDir := t.TempDir()
	ctx := context.Background()
	const q = "which item has the largest quantity"
	run := func(body func(reg *fleet.Registry)) {
		t.Helper()
		reg := fleet.New(src, fleet.Config{MaxActive: 2, StateDir: stateDir})
		if err := reg.Register("alpha"); err != nil {
			t.Fatal(err)
		}
		body(reg)
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := reg.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
	}
	translate := func(reg *fleet.Registry) *gar.Result {
		t.Helper()
		res, err := translateVia(ctx, reg, "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var base *gar.Result
	run(func(reg *fleet.Registry) { base = translate(reg) })
	store, err := checkpoint.OpenTenant(stateDir, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("flushed checkpoints: %v (%v), want one", entries, err)
	}
	data, err := os.ReadFile(entries[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	const oldGens = 4 // more than the default retention of 3
	for gen := uint64(1); gen <= oldGens; gen++ {
		stampFormat(t, data, store.Path(gen), gen, version)
	}

	run(func(reg *fleet.Registry) {
		got := translate(reg)
		if got.SQL != base.SQL {
			t.Fatalf("after the upgrade: %q, want %q", got.SQL, base.SQL)
		}
		if got.Generation <= oldGens {
			t.Fatalf("cold build serves generation %d, not above the skipped %d", got.Generation, oldGens)
		}
		if c := reg.Health().Tenants["alpha"].Counters; c.WarmStarts != 0 || c.ColdBuilds != 1 || src.deployCount("alpha") != 2 {
			t.Fatalf("format-%d state: counters %+v, deploys %d; want one cold build", version, c, src.deployCount("alpha"))
		}
	})
	for range 2 {
		run(func(reg *fleet.Registry) {
			if got := translate(reg); got.SQL != base.SQL {
				t.Fatalf("after the rebuild: %q, want %q", got.SQL, base.SQL)
			}
			if c := reg.Health().Tenants["alpha"].Counters; c.WarmStarts != 1 || src.deployCount("alpha") != 2 {
				t.Fatalf("rebuilt state: counters %+v, deploys %d; want a warm start", c, src.deployCount("alpha"))
			}
		})
	}
}

// stampFormat writes checkpoint data to path as a build of another
// layout version writes it: the same framing and sections under a
// manifest declaring the given generation and format version. A build
// before format 3 wrote no re-rank feature table, so that section is
// dropped.
func stampFormat(t *testing.T, data []byte, path string, gen uint64, version int) {
	t.Helper()
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	m := ck.Manifest
	m.Generation, m.FormatVersion = gen, version
	if version < 3 {
		m.Sections = slices.DeleteFunc(m.Sections, func(s checkpoint.SectionInfo) bool { return s.Name == core.SectionTable })
	}
	var mbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(&m); err != nil {
		t.Fatal(err)
	}
	out := append([]byte("GARCKPT1"), binary.BigEndian.AppendUint64(nil, uint64(mbuf.Len()))...)
	out = append(out, mbuf.Bytes()...)
	out = binary.BigEndian.AppendUint64(out, crc64.Checksum(mbuf.Bytes(), crc64.MakeTable(crc64.ECMA)))
	for _, s := range m.Sections {
		out = append(out, ck.Section(s.Name)...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Decode(out); !errors.Is(err, checkpoint.ErrIncompatible) {
		t.Fatalf("stamped file decodes with %v, want ErrIncompatible", err)
	}
}
