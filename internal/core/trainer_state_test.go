package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// panickingTrainer is a trainer whose every cycle panics and whose
// retries wait an hour, so it sits in its backoff until stopped.
func panickingTrainer(t *testing.T) *core.Trainer {
	t.Helper()
	inj := faults.NewInjector(1)
	inj.Panic(faults.Train, "training exploded")
	return core.NewTrainer(trainedSystem(t, trainerOpts()), feedbackLog(t, trainerFeedback), nil, trainerBase(), core.TrainerConfig{
		Interval: time.Millisecond,
		Backoff:  time.Hour,
		Injector: inj,
	})
}

// TestTrainerStopEndsBackingOff: a trainer stopped while its loop waits
// to retry a failed cycle reports idle, not backing-off — fleet
// eviction and shutdown both stop trainers, and an aborted eviction
// restarts one.
func TestTrainerStopEndsBackingOff(t *testing.T) {
	tr := panickingTrainer(t)
	tr.Start()
	tr.Notify()
	waitFor(t, "the loop to back off", func() bool { return tr.Stats().State == core.TrainerBackingOff })
	tr.Stop()
	if st := tr.Stats(); st.State != core.TrainerIdle {
		t.Fatalf("state after Stop = %q, want %q", st.State, core.TrainerIdle)
	}
	// Restarted, the loop waits for a notification: still idle.
	tr.Start()
	defer tr.Stop()
	if st := tr.Stats(); st.State != core.TrainerIdle || st.Failures != 1 {
		t.Fatalf("restarted trainer: %+v", st)
	}
}

// TestTrainerFlushReportsBackingOff: Flush's retries report backing-off
// while they wait, and idle once Flush gives up.
func TestTrainerFlushReportsBackingOff(t *testing.T) {
	tr := panickingTrainer(t)
	ctx, cancel := context.WithCancel(context.Background())
	flushed := make(chan error, 1)
	go func() { flushed <- tr.Flush(ctx) }()
	waitFor(t, "Flush to back off", func() bool { return tr.Stats().State == core.TrainerBackingOff })
	cancel()
	if err := <-flushed; err == nil {
		t.Fatal("Flush over a panicking cycle succeeded")
	}
	if st := tr.Stats(); st.State != core.TrainerIdle {
		t.Fatalf("state after Flush = %q, want %q", st.State, core.TrainerIdle)
	}
}
