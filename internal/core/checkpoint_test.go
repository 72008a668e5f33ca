package core_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/schema/schematest"
	"repro/internal/vector"
)

// restoreTarget builds a fresh, never-prepared system with the same
// options trainedSystem uses, the warm-start shape: schema from config,
// state from the checkpoint.
func restoreTarget() *core.System { return restoreTargetWith(core.Options{}) }

// restoreTargetWith is restoreTarget with the worker count and the
// execution-guide switch taken from opts.
func restoreTargetWith(opts core.Options) *core.System {
	return core.New(schematest.Employee(), core.Options{
		GeneralizeSize: 300, RetrievalK: 10,
		EncoderEpochs: 12, RerankEpochs: 40, Seed: 42,
		Workers: opts.Workers, ExecGuide: opts.ExecGuide,
	})
}

var checkpointQuestions = []string{
	"who is the oldest employee",
	"how many employees are there",
	"what is the average bonus",
	"which employees are older than 30",
}

// TestCheckpointRoundTrip is the core warm-start contract: export the
// serving snapshot, decode it back, restore into fresh systems that
// never ran Prepare or Train — one deriving on a single goroutine, one
// on four — and get the exported snapshot back: the same generation,
// pool and stats, bit-identical dialect vectors, encoder, cost features
// and re-rank feature table, and byte-identical translations with the
// exporter's exact scores.
func TestCheckpointRoundTrip(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if m.Database != sys.DB.Name || m.Generation != sys.Generation() {
		t.Fatalf("manifest = %+v, want db %s gen %d", m, sys.DB.Name, sys.Generation())
	}
	ck := decodeExport(t, m, sections)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			fresh := restoreTargetWith(core.Options{Workers: workers})
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
			sameDerivedParts(t, core.ServingPipeline(fresh), core.ServingPipeline(sys))

			for _, q := range checkpointQuestions {
				a, err := sys.Translate(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := fresh.Translate(q)
				if err != nil {
					t.Fatal(err)
				}
				if d := rankedDiff(a, b); d != "" {
					t.Fatalf("%q: %s", q, d)
				}
				if b.Generation != fresh.Generation() {
					t.Fatalf("%q: translation generation %d, want %d", q, b.Generation, fresh.Generation())
				}
			}
		})
	}
}

// TestCheckpointRoundTripExecGuide: with execution guidance on, a
// restore derives the same snapshot on one goroutine as on four, and
// the two answer identically. (Neither matches the exporter: a restored
// guide has no sample literals to seed from.)
func TestCheckpointRoundTripExecGuide(t *testing.T) {
	sys := trainedSystem(t, core.Options{ExecGuide: true})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck := decodeExport(t, m, sections)
	var restored []*core.System
	for _, workers := range []int{1, 4} {
		fresh := restoreTargetWith(core.Options{Workers: workers, ExecGuide: true})
		if err := fresh.RestoreCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
		sameDerivedParts(t, core.ServingPipeline(fresh), core.ServingPipeline(sys))
		restored = append(restored, fresh)
	}
	for _, q := range checkpointQuestions {
		a, err := restored[0].Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored[1].Translate(q)
		if err != nil {
			t.Fatal(err)
		}
		if d := rankedDiff(a, b); d != "" {
			t.Fatalf("%q at 4 workers vs 1: %s", q, d)
		}
	}
}

// decodeExport frames an export as a checkpoint file and decodes it.
func decodeExport(t *testing.T, m checkpoint.Manifest, sections []checkpoint.Section) *checkpoint.Checkpoint {
	t.Helper()
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// sameDerivedParts compares a restored pipeline with the exporter's:
// dialect vectors and encoder bit for bit (the encoder through the
// embedding of every dialect and question), cost features and the
// re-rank feature table exactly.
func sameDerivedParts(t *testing.T, got, want *ltr.Pipeline) {
	t.Helper()
	sameBits := func(what string, a, b vector.Vec) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: dimension %d, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("%s: component %d is %v, want %v", what, i, a[i], b[i])
			}
		}
	}
	if len(got.DialVecs) != len(want.DialVecs) {
		t.Fatalf("%d dialect vectors, want %d", len(got.DialVecs), len(want.DialVecs))
	}
	for i := range want.DialVecs {
		sameBits(fmt.Sprintf("dialect vector %d", i), got.DialVecs[i], want.DialVecs[i])
	}
	texts := append([]string(nil), checkpointQuestions...)
	for _, c := range want.Pool {
		texts = append(texts, c.Dialect)
	}
	for _, s := range texts {
		sameBits(fmt.Sprintf("embedding of %q", s), got.Encoder.Encode(s), want.Encoder.Encode(s))
	}
	if !reflect.DeepEqual(got.Costs, want.Costs) {
		t.Fatal("restored cost features differ")
	}
	if want.Table == nil {
		t.Fatal("the exporter's pipeline has no re-rank feature table to compare")
	}
	if !reflect.DeepEqual(got.Table, want.Table) {
		t.Fatal("restored re-rank feature table differs")
	}
}

// rankedDiff describes the first difference between two translations'
// ranked outputs, or returns "".
func rankedDiff(a, b *core.Translation) string {
	if a.Top.SQL.String() != b.Top.SQL.String() {
		return fmt.Sprintf("top %q, want %q", b.Top.SQL, a.Top.SQL)
	}
	if len(a.Ranked) != len(b.Ranked) {
		return fmt.Sprintf("ranked lengths differ: %d vs %d", len(b.Ranked), len(a.Ranked))
	}
	for i := range a.Ranked {
		if a.Ranked[i].Score != b.Ranked[i].Score || a.Ranked[i].Dialect != b.Ranked[i].Dialect ||
			a.Ranked[i].SQL.String() != b.Ranked[i].SQL.String() {
			return fmt.Sprintf("rank %d differs: %+v vs %+v", i, b.Ranked[i], a.Ranked[i])
		}
	}
	return ""
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
	// Flat-block damage to the dialect vectors: each block frames
	// correctly but is wrong for this snapshot.
	flat := map[string][]checkpoint.Section{
		"flat-truncated-block": withVecs(t, sections, func(block []byte) []byte { return block[:len(block)-5] }),
		"flat-wrong-dimension": withVecs(t, sections, narrowVecs(t)),
		"flat-count-vs-pool": withVecs(t, sections, editRows(t, func(rows []vector.Vec) []vector.Vec {
			return rows[:len(rows)-1]
		})),
		"flat-empty-block": withVecs(t, sections, editRows(t, func([]vector.Vec) []vector.Vec { return nil })),
	}
	for name, damaged := range flat {
		t.Run(name, func(t *testing.T) {
			fresh := restoreTarget()
			rerr := fresh.RestoreCheckpoint(decodeExport(t, m, damaged))
			if !errors.Is(rerr, checkpoint.ErrCorrupt) {
				t.Fatalf("damage not typed as corruption: %v", rerr)
			}
			if fresh.Ready() || fresh.PoolSize() != 0 {
				t.Fatal("failed restore published a state")
			}
		})
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

// TestCheckpointGenerationsOutnumberSkippedFiles: files a recovery has
// to skip — corrupt here, in an upgrade the checkpoints of an older
// layout version — still rank first in the store, so a system that
// recovered past them numbers its next snapshot above them. Otherwise
// retention, which keeps the newest generations, would delete the new
// checkpoint and keep the unreadable ones, and every restart would
// build cold again.
func TestCheckpointGenerationsOutnumberSkippedFiles(t *testing.T) {
	ctx := context.Background()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	damage := func(gen uint64) {
		t.Helper()
		if err := os.WriteFile(st.Path(gen), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recoverGen := func(wantSkipped int) (*core.System, uint64) {
		t.Helper()
		sys := restoreTarget()
		ck, skipped, err := sys.RecoverCheckpoint(st)
		if err != nil || len(skipped) != wantSkipped {
			t.Fatalf("recover: skipped %v (%v), want %d skipped", skipped, err, wantSkipped)
		}
		if ck == nil {
			return sys, 0
		}
		return sys, ck.Manifest.Generation
	}

	// Nothing recoverable: the cold build numbers above the skipped
	// files and its checkpoint survives a retention of 3.
	for gen := uint64(4); gen <= 6; gen++ {
		damage(gen)
	}
	cold, _ := recoverGen(3)
	cold.Prepare(employeeSamples())
	if err := cold.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	if g := cold.Generation(); g != 7 {
		t.Fatalf("cold build after skipping generations 4-6 is generation %d, want 7", g)
	}
	if err := core.NewCheckpointer(cold, st, core.CheckpointerConfig{Keep: 3}).Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, gen := recoverGen(0); gen != 7 {
		t.Fatalf("after the cold build's checkpoint: recovered generation %d, want 7", gen)
	}

	// An older generation restored past a skipped newer one: the next
	// swap numbers above the skipped file and survives a retention of 1.
	damage(9)
	sys, gen := recoverGen(1)
	if gen != 7 || sys.Generation() != 7 {
		t.Fatalf("recovered generation %d, system at %d; want 7", gen, sys.Generation())
	}
	models, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := sys.Swap(employeeSamples(), models); err != nil || gen != 10 {
		t.Fatalf("swap after skipping generation 9: generation %d (%v), want 10", gen, err)
	}
	if err := core.NewCheckpointer(sys, st, core.CheckpointerConfig{Keep: 1}).Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, gen := recoverGen(0); gen != 10 {
		t.Fatalf("after the swap's checkpoint: recovered generation %d, want 10", gen)
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

// TestCheckpointRestoreChargesBuildBytes: a restore charges the memory
// budget exactly what building the same snapshot charged — sized from
// the stored SQL text, which is what the parsed candidates print — and
// a restore that fails after charging returns every byte.
func TestCheckpointRestoreChargesBuildBytes(t *testing.T) {
	sys := restoreTarget()
	sys.SetResources(memgov.New("exporter", 64<<20), "")
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	built := sys.MemStats().SnapshotBytes
	if built <= 0 {
		t.Fatalf("build charged %d bytes", built)
	}
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	budget := memgov.New("restore", 64<<20)
	fresh := restoreTarget()
	fresh.SetResources(budget, "")
	if err := fresh.RestoreCheckpoint(decodeExport(t, m, sections)); err != nil {
		t.Fatal(err)
	}
	if got := fresh.MemStats().SnapshotBytes; got != built {
		t.Fatalf("restore charged %d bytes, the build charged %d", got, built)
	}
	if used := budget.Used(); used != built {
		t.Fatalf("budget holds %d bytes for a %d-byte snapshot", used, built)
	}

	// Vectors of the wrong dimension fail only once the models decode,
	// after the charge.
	narrow := withVecs(t, sections, narrowVecs(t))
	empty := memgov.New("failed", 64<<20)
	failed := restoreTarget()
	failed.SetResources(empty, "")
	if err := failed.RestoreCheckpoint(decodeExport(t, m, narrow)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("narrow vectors: %v, want ErrCorrupt", err)
	}
	if used := empty.Used(); used != 0 {
		t.Fatalf("failed restore left %d bytes charged", used)
	}
}

// withVecs returns a copy of sections whose vecs section is edit of the
// original.
func withVecs(t *testing.T, sections []checkpoint.Section, edit func([]byte) []byte) []checkpoint.Section {
	t.Helper()
	out := append([]checkpoint.Section(nil), sections...)
	for i, s := range out {
		if s.Name == core.SectionVecs {
			out[i].Data = edit(s.Data)
		}
	}
	return out
}

// editRows lifts an edit of the decoded dialect vectors to their flat
// block.
func editRows(t *testing.T, edit func([]vector.Vec) []vector.Vec) func([]byte) []byte {
	return func(block []byte) []byte {
		rows, err := vector.DecodeRows(block)
		if err != nil {
			t.Fatal(err)
		}
		out, err := vector.EncodeRows(edit(rows))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// narrowVecs drops the last component of every dialect vector: a block
// of consistent framing whose dimension no encoder of the snapshot has.
func narrowVecs(t *testing.T) func([]byte) []byte {
	return editRows(t, func(rows []vector.Vec) []vector.Vec {
		for i := range rows {
			rows[i] = rows[i][:len(rows[i])-1]
		}
		return rows
	})
}

// TestCheckpointRestoreReportsLowestFailingCandidate: a pool with a
// candidate that no longer binds and a later one that no longer parses
// fails on the earlier of the two — incompatible, naming candidate 2 —
// whichever worker count derives it, and leaves the system untouched.
func TestCheckpointRestoreReportsLowestFailingCandidate(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The stored form of a candidate, as the pool section gobs it.
	type entry struct{ SQL, Dialect string }
	withPool := func(edit func([]entry)) []checkpoint.Section {
		out := append([]checkpoint.Section(nil), sections...)
		for i, s := range out {
			if s.Name != core.SectionPool {
				continue
			}
			var entries []entry
			if err := gob.NewDecoder(bytes.NewReader(s.Data)).Decode(&entries); err != nil {
				t.Fatal(err)
			}
			edit(entries)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
				t.Fatal(err)
			}
			out[i].Data = buf.Bytes()
		}
		return out
	}
	cases := []struct {
		name      string
		edit      func([]entry)
		sentinel  error
		candidate string
	}{
		{"unparseable", func(es []entry) { es[5].SQL = "SELECT FROM WHERE" }, checkpoint.ErrCorrupt, "candidate 5 "},
		{"unbindable", func(es []entry) { es[2].SQL = "SELECT salary FROM employee" }, checkpoint.ErrIncompatible, "candidate 2 "},
		{"both", func(es []entry) {
			es[2].SQL = "SELECT salary FROM employee"
			es[5].SQL = "SELECT FROM WHERE"
		}, checkpoint.ErrIncompatible, "candidate 2 "},
	}
	for _, tc := range cases {
		ck := decodeExport(t, m, withPool(tc.edit))
		for _, workers := range []int{1, 4} {
			fresh := restoreTargetWith(core.Options{Workers: workers})
			err := fresh.RestoreCheckpoint(ck)
			if !errors.Is(err, tc.sentinel) || !strings.Contains(err.Error(), tc.candidate) {
				t.Fatalf("%s at %d workers: %v, want %v naming %q", tc.name, workers, err, tc.sentinel, tc.candidate)
			}
			if fresh.Ready() || fresh.PoolSize() != 0 {
				t.Fatalf("%s at %d workers: failed restore published a state", tc.name, workers)
			}
		}
	}
}

// TestCheckpointRestoreOverBudget: a budget too small for the
// checkpoint is a plain budget error — not corruption, so recovery
// does not count the file as damaged — and nothing stays charged or
// published.
func TestCheckpointRestoreOverBudget(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck := decodeExport(t, m, sections)
	for _, limit := range []int64{1 << 10, 64 << 10} {
		budget := memgov.New("tight", limit)
		fresh := restoreTarget()
		fresh.SetResources(budget, "")
		err := fresh.RestoreCheckpoint(ck)
		if !errors.Is(err, memgov.ErrBudgetExceeded) || errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("limit %d: %v, want a budget error", limit, err)
		}
		if fresh.Ready() || budget.Used() != 0 {
			t.Fatalf("limit %d: ready=%v, %d bytes still charged", limit, fresh.Ready(), budget.Used())
		}
	}
}
