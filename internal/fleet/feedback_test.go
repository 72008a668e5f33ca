package fleet_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/feedback"
	"repro/internal/fleet"
)

// feedbackSource extends the fixture source with the FeedbackSource
// hook, opting the registry into the online learning loop.
type feedbackSource struct {
	*testSource
}

func (s *feedbackSource) FeedbackBase(name string) (gar.BaseData, error) {
	return gar.BaseData{Samples: itemSamples(), Examples: itemExamples()}, nil
}

// TestFleetFeedbackLifecycle walks a feedback-enabled tenant through
// the full loop: activation attaches a WAL and trainer, accepted
// feedback shows up in health, a forced retrain cycle consumes it, and
// the WAL — the loop's source of truth — survives eviction and is
// replayed on reactivation.
func TestFleetFeedbackLifecycle(t *testing.T) {
	src := &feedbackSource{newTestSource(t)}
	var clockMu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	stateDir := t.TempDir()
	reg := fleet.New(src, fleet.Config{
		MaxActive: 2, IdleAfter: time.Minute, StateDir: stateDir,
		Feedback: true, Clock: clock,
	})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := translateVia(ctx, reg, "alpha", "how many items are there"); err != nil {
		t.Fatal(err)
	}

	h, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	flog, trainer := h.FeedbackLog(), h.Trainer()
	if flog == nil || trainer == nil {
		t.Fatalf("feedback-enabled activation attached log=%v trainer=%v", flog, trainer)
	}
	seq, err := flog.Append(feedback.Record{
		Question: "how many items are on hand",
		SQL:      "SELECT COUNT(*) FROM item",
		Source:   feedback.SourceCorrected,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.CountFeedback(true)
	h.CountFeedback(false)
	h.Release()

	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Feedback == nil {
		t.Fatal("active feedback tenant reports no feedback block")
	}
	if row.Feedback.Accepted != 1 || row.Feedback.Rejected != 1 {
		t.Fatalf("feedback tallies = %+v", row.Feedback)
	}
	if row.Feedback.WAL.LastSeq != seq || row.Feedback.WAL.Segments == 0 {
		t.Fatalf("feedback WAL stats = %+v", row.Feedback.WAL)
	}

	// Force one training cycle through the fleet's budget gate; the
	// appended correction is folded into the sample set off the serving
	// path.
	if err := trainer.Flush(ctx); err != nil {
		t.Fatalf("fleet-gated retrain: %v", err)
	}
	if st := trainer.Stats(); st.Retrains != 1 || st.TrainedSeq != seq {
		t.Fatalf("trainer stats after flush = %+v", st)
	}

	// Evict and confirm the WAL outlived the tenant's residency.
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	if n := reg.EvictIdle(ctx); n != 1 {
		t.Fatalf("evicted %d tenants, want 1", n)
	}
	segs, err := filepath.Glob(filepath.Join(stateDir, "alpha", "feedback", "seg-*.fwal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("eviction lost the feedback WAL (segments %v, err %v)", segs, err)
	}

	// Reactivation replays it: the sequence counter continues where the
	// evicted incarnation stopped, and the health block is back.
	if _, err := translateVia(ctx, reg, "alpha", "list the item labels"); err != nil {
		t.Fatal(err)
	}
	h2, err := reg.Acquire(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.FeedbackLog() == nil || h2.FeedbackLog().LastSeq() != seq {
		t.Fatalf("reactivated WAL lost state: %+v", h2.FeedbackLog())
	}
	row, err = reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Feedback == nil || row.Feedback.Accepted != 1 {
		t.Fatalf("feedback tallies lost across eviction: %+v", row.Feedback)
	}

	if err := reg.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestFleetFeedbackInert pins the opt-in contract: Config.Feedback
// without a FeedbackSource (or without a StateDir) attaches nothing,
// and serving works exactly as before.
func TestFleetFeedbackInert(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, reg *fleet.Registry) {
		t.Helper()
		if err := reg.Register("alpha"); err != nil {
			t.Fatal(err)
		}
		if _, err := translateVia(ctx, reg, "alpha", "how many items are there"); err != nil {
			t.Fatal(err)
		}
		h, err := reg.Acquire(ctx, "alpha")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		if h.FeedbackLog() != nil || h.Trainer() != nil {
			t.Fatal("inert configuration still attached feedback machinery")
		}
		row, err := reg.TenantHealth("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if row.Feedback != nil {
			t.Fatalf("inert configuration reports feedback health: %+v", row.Feedback)
		}
	}
	t.Run("no-feedback-source", func(t *testing.T) {
		check(t, fleet.New(newTestSource(t), fleet.Config{
			MaxActive: 2, StateDir: t.TempDir(), Feedback: true,
		}))
	})
	t.Run("no-statedir", func(t *testing.T) {
		check(t, fleet.New(&feedbackSource{newTestSource(t)}, fleet.Config{
			MaxActive: 2, Feedback: true,
		}))
	})
}

// TestFleetFlatState pins the single-database layout: a FlatState
// registry holds one tenant, whose checkpoints and feedback WAL live
// directly in StateDir and StateDir/feedback — never in a
// StateDir/{tenant} subdirectory.
func TestFleetFlatState(t *testing.T) {
	stateDir := t.TempDir()
	reg := fleet.New(&feedbackSource{newTestSource(t)}, fleet.Config{
		StateDir: stateDir, FlatState: true, Feedback: true, MemLimit: 64 << 20,
	})
	if err := reg.Register("solo"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("other"); err == nil {
		t.Fatal("a flat state directory accepted a second tenant")
	}
	ctx := context.Background()
	if _, err := translateVia(ctx, reg, "solo", "how many items are there"); err != nil {
		t.Fatal(err)
	}
	// The roll-up totals the tenant's checkpoint counters.
	waitFor(t, "the cold build's checkpoint in the roll-up", func() bool {
		ck := reg.Health().Checkpoint
		return ck != nil && ck.Writes >= 1 && !ck.Pending
	})
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := filepath.Glob(filepath.Join(stateDir, "gen-*.ckpt")); len(got) == 0 {
		t.Error("no checkpoint in the state directory")
	}
	if st, err := os.Stat(filepath.Join(stateDir, "feedback")); err != nil || !st.IsDir() {
		t.Errorf("feedback directory not in the state directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "solo")); !os.IsNotExist(err) {
		t.Errorf("flat layout created a tenant subdirectory (err=%v)", err)
	}
}
