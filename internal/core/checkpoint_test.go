package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/schema/schematest"
)

// restoreTarget builds a fresh, never-prepared system with the same
// options trainedSystem uses, the warm-start shape: schema from config,
// state from the checkpoint.
func restoreTarget() *core.System {
	return core.New(schematest.Employee(), core.Options{
		GeneralizeSize: 300, RetrievalK: 10,
		EncoderEpochs: 12, RerankEpochs: 40, Seed: 42,
	})
}

var checkpointQuestions = []string{
	"who is the oldest employee",
	"how many employees are there",
	"what is the average bonus",
	"which employees are older than 30",
}

// TestCheckpointRoundTrip is the core warm-start contract: export the
// serving snapshot, decode it back, restore into a fresh system that
// never ran Prepare or Train, and get byte-identical translations at
// the same generation.
func TestCheckpointRoundTrip(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m.Database != sys.DB.Name || m.Generation != sys.Generation() {
		t.Fatalf("manifest = %+v, want db %s gen %d", m, sys.DB.Name, sys.Generation())
	}
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}

	fresh := restoreTarget()
	if fresh.Ready() || fresh.PoolSize() != 0 {
		t.Fatal("restore target is not pristine")
	}
	if err := fresh.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if !fresh.Ready() {
		t.Fatal("restored system is not Ready")
	}
	if fresh.Generation() != sys.Generation() {
		t.Fatalf("restored generation %d, want %d", fresh.Generation(), sys.Generation())
	}
	if fresh.PoolSize() != sys.PoolSize() {
		t.Fatalf("restored pool %d, want %d", fresh.PoolSize(), sys.PoolSize())
	}
	if fresh.PrepStats() != sys.PrepStats() {
		t.Fatalf("PrepStats did not survive: %+v vs %+v", fresh.PrepStats(), sys.PrepStats())
	}

	want := sys.PoolDialects()
	got := fresh.PoolDialects()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dialect %d differs after restore: %q vs %q", i, got[i], want[i])
		}
	}

	for _, q := range checkpointQuestions {
		a, err := sys.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.Top.SQL.String() != b.Top.SQL.String() {
			t.Fatalf("%q: restored top %q, want %q", q, b.Top.SQL, a.Top.SQL)
		}
		if len(a.Ranked) != len(b.Ranked) {
			t.Fatalf("%q: ranked lengths differ: %d vs %d", q, len(b.Ranked), len(a.Ranked))
		}
		for i := range a.Ranked {
			if a.Ranked[i].Score != b.Ranked[i].Score || a.Ranked[i].Dialect != b.Ranked[i].Dialect {
				t.Fatalf("%q: rank %d differs: %+v vs %+v", q, i, b.Ranked[i], a.Ranked[i])
			}
		}
		if b.Generation != fresh.Generation() {
			t.Fatalf("%q: translation generation %d, want %d", q, b.Generation, fresh.Generation())
		}
	}
}

// TestCheckpointExportNotReady: nothing durable exists before training.
func TestCheckpointExportNotReady(t *testing.T) {
	sys := restoreTarget()
	if _, _, err := sys.ExportCheckpoint(); !errors.Is(err, core.ErrNotReady) {
		t.Fatalf("export before train: %v, want ErrNotReady", err)
	}
	sys.Prepare(employeeSamples())
	if _, _, err := sys.ExportCheckpoint(); !errors.Is(err, core.ErrNotReady) {
		t.Fatalf("export after bare Prepare: %v, want ErrNotReady", err)
	}
}

// TestCheckpointRestoreWrongDatabase: a checkpoint for another database
// is refused as incompatible and the system is untouched.
func TestCheckpointRestoreWrongDatabase(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := checkpoint.Encode(m, sections)
	ck, _ := checkpoint.Decode(data)

	other := core.New(schematest.Flights(), core.Options{RetrievalK: 10, Seed: 42})
	err = other.RestoreCheckpoint(ck)
	if !errors.Is(err, checkpoint.ErrIncompatible) {
		t.Fatalf("restore onto flights: %v, want ErrIncompatible", err)
	}
	if other.Ready() || other.PoolSize() != 0 {
		t.Fatal("failed restore mutated the system")
	}
}

// TestCheckpointRestoreDamagedSections: every single-section mutilation
// of a valid checkpoint is rejected as corrupt, never panics, and never
// publishes a half-restored state.
func TestCheckpointRestoreDamagedSections(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	names := []string{core.SectionPool, core.SectionVecs, core.SectionModels, core.SectionStats}
	mutations := map[string]func([]checkpoint.Section, int) []checkpoint.Section{
		"missing": func(ss []checkpoint.Section, i int) []checkpoint.Section {
			return append(append([]checkpoint.Section(nil), ss[:i]...), ss[i+1:]...)
		},
		"truncated": func(ss []checkpoint.Section, i int) []checkpoint.Section {
			out := append([]checkpoint.Section(nil), ss...)
			out[i] = checkpoint.Section{Name: out[i].Name, Data: out[i].Data[:len(out[i].Data)/2]}
			return out
		},
		"garbage": func(ss []checkpoint.Section, i int) []checkpoint.Section {
			out := append([]checkpoint.Section(nil), ss...)
			out[i] = checkpoint.Section{Name: out[i].Name, Data: []byte("not a gob stream at all")}
			return out
		},
	}
	for mutName, mutate := range mutations {
		for i, name := range names {
			t.Run(mutName+"-"+name, func(t *testing.T) {
				damaged := mutate(sections, i)
				// Re-encode: the envelope is self-consistent, so only the
				// semantic layer can catch the damage.
				data, err := checkpoint.Encode(m, damaged)
				if err != nil {
					t.Fatal(err)
				}
				ck, err := checkpoint.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				fresh := restoreTarget()
				rerr := fresh.RestoreCheckpoint(ck)
				if rerr == nil {
					t.Fatal("damaged checkpoint restored cleanly")
				}
				if !errors.Is(rerr, checkpoint.ErrCorrupt) {
					t.Fatalf("damage not typed as corruption: %v", rerr)
				}
				if fresh.Ready() {
					t.Fatal("failed restore published a state")
				}
			})
		}
	}
}

// TestCheckpointRecoverySystemMatrix drives Store.Recover with
// RestoreCheckpoint as the acceptance check across a directory holding
// a valid old generation plus assorted damaged newer ones: recovery
// must land on the newest fully-valid generation, never panic, and
// leave the system serving exactly that state.
func TestCheckpointRecoverySystemMatrix(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// gen 1: fully valid.
	m1 := m
	m1.Generation = 1
	if err := st.Write(m1, sections); err != nil {
		t.Fatal(err)
	}
	// gen 2: bit-flipped on disk (write "succeeds", checksum must catch).
	inj := faults.NewInjector(7)
	inj.Inject(faults.FSWrite, faults.Plan{Kind: faults.KindBitFlip, Offset: 12345})
	st.SetFaultInjector(inj)
	m2 := m
	m2.Generation = 2
	if err := st.Write(m2, sections); err != nil {
		t.Fatal(err)
	}
	// gen 3: torn mid-write (short write fails the writer; no file may
	// appear under the final name).
	inj2 := faults.NewInjector(7)
	inj2.Inject(faults.FSWrite, faults.Plan{Kind: faults.KindShortWrite, Bytes: 100})
	st.SetFaultInjector(inj2)
	m3 := m
	m3.Generation = 3
	if err := st.Write(m3, sections); err == nil {
		t.Fatal("short write reported success")
	}
	// gen 4: valid envelope, models section missing — semantic damage
	// only RestoreCheckpoint can detect.
	st.SetFaultInjector(nil)
	var noModels []checkpoint.Section
	for _, s := range sections {
		if s.Name != core.SectionModels {
			noModels = append(noModels, s)
		}
	}
	m4 := m
	m4.Generation = 4
	if err := st.Write(m4, noModels); err != nil {
		t.Fatal(err)
	}

	fresh := restoreTarget()
	ck, skipped, err := st.Recover(fresh.RestoreCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatalf("nothing recovered; skipped: %v", skipped)
	}
	if ck.Manifest.Generation != 1 {
		t.Fatalf("recovered generation %d, want 1 (newest fully-valid)", ck.Manifest.Generation)
	}
	// gen 4 (missing section) and gen 2 (bit flip) must both have been
	// proven invalid; gen 3 never completed its rename.
	if len(skipped) != 2 {
		t.Fatalf("skipped %d files, want 2: %v", len(skipped), skipped)
	}
	for _, sk := range skipped {
		if !errors.Is(sk.Err, checkpoint.ErrCorrupt) {
			t.Fatalf("skip reason not corruption: %v", sk.Err)
		}
	}
	if !fresh.Ready() || fresh.Generation() != 1 {
		t.Fatalf("system not serving the recovered state (ready=%v gen=%d)", fresh.Ready(), fresh.Generation())
	}
	if _, err := fresh.Translate("who is the oldest employee"); err != nil {
		t.Fatal(err)
	}

	// All-invalid directory: recovery reports clean empty state and the
	// target system stays pristine.
	empty := t.TempDir()
	st2, _ := checkpoint.Open(empty)
	if err := st2.Write(m4, noModels); err != nil {
		t.Fatal(err)
	}
	pristine := restoreTarget()
	ck2, skipped2, err := st2.Recover(pristine.RestoreCheckpoint)
	if err != nil || ck2 != nil {
		t.Fatalf("all-invalid directory: ck=%v err=%v", ck2, err)
	}
	if len(skipped2) != 1 || pristine.Ready() {
		t.Fatalf("clean-empty-state contract violated: skipped=%v ready=%v", skipped2, pristine.Ready())
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCheckpointerWritesOnPublish: the background checkpointer hooks
// the publish path, coalesces the Prepare+Train burst into one write,
// and the written file restores.
func TestCheckpointerWritesOnPublish(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := restoreTarget()
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{
		Keep: 2, Coalesce: 20 * time.Millisecond, Backoff: 10 * time.Millisecond,
	})
	c.Start()
	defer c.Stop()

	// Prepare then Train: two publications inside one coalesce window.
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first background write", func() bool { return c.Stats().Writes >= 1 })

	stats := c.Stats()
	if stats.LastGeneration != sys.Generation() {
		t.Fatalf("checkpointed generation %d, want %d", stats.LastGeneration, sys.Generation())
	}
	if stats.Pending {
		t.Fatal("write completed but still pending")
	}
	ck, skipped, err := st.Recover(nil)
	if err != nil || ck == nil {
		t.Fatalf("recover: ck=%v skipped=%v err=%v", ck, skipped, err)
	}
	fresh := restoreTarget()
	if err := fresh.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if !fresh.Ready() {
		t.Fatal("background checkpoint does not restore")
	}
}

// TestCheckpointerRetriesWithBackoff: injected fsync failures are
// retried until the write lands; the counters record every failure.
func TestCheckpointerRetriesWithBackoff(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(3)
	inj.Inject(faults.FSSync, faults.Plan{Kind: faults.KindError, Times: 2})
	st.SetFaultInjector(inj)

	sys := trainedSystem(t, core.Options{})
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{
		Keep: 2, Coalesce: time.Millisecond, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
	})
	c.Start()
	defer c.Stop()
	c.Notify()

	waitFor(t, "write to land after retries", func() bool { return c.Stats().Writes >= 1 })
	stats := c.Stats()
	if stats.Failures != 2 {
		t.Fatalf("failures = %d, want 2", stats.Failures)
	}
	if stats.LastError != "" {
		t.Fatalf("LastError not cleared after success: %q", stats.LastError)
	}
	if got := inj.Fired(faults.FSSync); got != 2 {
		t.Fatalf("injector fired %d times, want 2", got)
	}
}

// TestCheckpointerFlushAndRetention: Flush persists synchronously, and
// repeated swaps prune the directory down to Keep generations.
func TestCheckpointerFlushAndRetention(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys := trainedSystem(t, core.Options{})
	models, err := core.TrainModels(
		[]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{Keep: 2, Backoff: time.Millisecond})

	// Not started: Flush alone must persist the current state.
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("after flush: %d entries (%v)", len(entries), err)
	}

	// Swap a few generations through the synchronous path and verify
	// retention holds at Keep.
	for i := 0; i < 3; i++ {
		if _, err := sys.Swap(employeeSamples(), models); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	entries, err = st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retention kept %d generations, want 2", len(entries))
	}
	if entries[0].Generation != sys.Generation() {
		t.Fatalf("newest on disk is %d, want %d", entries[0].Generation, sys.Generation())
	}
	if c.Stats().Pruned == 0 {
		t.Fatal("prune counter never moved")
	}

	// Flushing an unready system is a clean no-op.
	c2 := core.NewCheckpointer(restoreTarget(), st, core.CheckpointerConfig{})
	if err := c2.Flush(context.Background()); err != nil {
		t.Fatalf("flush of unready system: %v", err)
	}
}

// TestCheckpointRestoredSystemKeepsEvolving: a warm-started system is a
// full citizen — swaps bump its restored generation and the next export
// captures the new state.
func TestCheckpointRestoredSystemKeepsEvolving(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := checkpoint.Encode(m, sections)
	ck, _ := checkpoint.Decode(data)

	fresh := restoreTarget()
	if err := fresh.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	restoredGen := fresh.Generation()

	models, err := core.TrainModels(
		[]core.TrainingSet{{Sys: fresh, Examples: employeeExamples()}}, fresh.Opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := fresh.Swap(employeeSamples(), models)
	if err != nil {
		t.Fatal(err)
	}
	if gen != restoredGen+1 {
		t.Fatalf("post-restore swap produced generation %d, want %d", gen, restoredGen+1)
	}
	m2, _, err := fresh.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Generation != gen {
		t.Fatalf("re-export generation %d, want %d", m2.Generation, gen)
	}
}

// recoveredSystem writes a trained system's checkpoint into st and
// warm-starts a fresh system from it through RecoverCheckpoint.
func recoveredSystem(t *testing.T, st *checkpoint.Store) *core.System {
	t.Helper()
	if err := core.NewCheckpointer(trainedSystem(t, core.Options{}), st, core.CheckpointerConfig{}).Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	sys := restoreTarget()
	ck, skipped, err := sys.RecoverCheckpoint(st)
	if err != nil || ck == nil || len(skipped) != 0 {
		t.Fatalf("recover: ck=%v skipped=%v err=%v", ck, skipped, err)
	}
	return sys
}

// TestCheckpointerSkipsCleanRecoveredState: a system warm-started from
// a store is already durable there, so shutting its checkpointer down
// (the eviction path) writes nothing — until a publication changes the
// state. A checkpointer on another store still writes.
func TestCheckpointerSkipsCleanRecoveredState(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := recoveredSystem(t, st)
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{Coalesce: time.Millisecond, Backoff: time.Millisecond})
	c.Start()
	c.Notify()
	for _, q := range checkpointQuestions {
		if _, err := sys.Translate(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Writes != 0 || s.Pending {
		t.Fatalf("untouched warm start was checkpointed again: %+v", s)
	}

	other, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewCheckpointer(sys, other, core.CheckpointerConfig{}).Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if entries, err := other.List(); err != nil || len(entries) != 1 {
		t.Fatalf("checkpointer on another store: %d entries (%v)", len(entries), err)
	}

	models, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.Swap(employeeSamples(), models)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Writes != 1 || s.LastGeneration != gen {
		t.Fatalf("flush after swap: %+v, want one write of generation %d", s, gen)
	}
}

// TestCheckpointerWritesAfterPromotion: a trainer promotion publishes a
// new state on a warm-started system, and the next flush persists it.
func TestCheckpointerWritesAfterPromotion(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := recoveredSystem(t, st)
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{Backoff: time.Millisecond})
	tr := core.NewTrainer(sys, feedbackLog(t, trainerFeedback), nil, trainerBase(), core.TrainerConfig{ShadowThreshold: 1})
	if err := tr.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Promotions != 1 {
		t.Fatalf("no promotion: %+v", tr.Stats())
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Writes != 1 || s.LastGeneration != sys.Generation() {
		t.Fatalf("flush after promotion: %+v, want one write of generation %d", s, sys.Generation())
	}
}

// TestCheckpointerFlushesPublishDuringWrite: a publication that lands
// while a background write of the previous state is in flight must
// still be flushed, even though that write clears the pending flag when
// it completes.
func TestCheckpointerFlushesPublishDuringWrite(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(5)
	gate := make(chan struct{})
	inj.Inject(faults.FSSync, faults.Plan{Kind: faults.KindBlock, Until: gate, Times: 1})
	st.SetFaultInjector(inj)

	sys, models := swapSystem(t, core.Options{})
	c := core.NewCheckpointer(sys, st, core.CheckpointerConfig{Coalesce: time.Millisecond, Backoff: time.Millisecond})
	c.Start()
	c.Notify()
	waitFor(t, "background write to park at fsync", func() bool { return inj.Fired(faults.FSSync) == 1 })
	gen, err := sys.Swap(employeeSamples(), models)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitFor(t, "parked write to land", func() bool { return c.Stats().Writes >= 1 })
	c.Stop()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[0].Generation != gen {
		t.Fatalf("newest checkpoint %+v, want generation %d", entries, gen)
	}
}
