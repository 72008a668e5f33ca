package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countingWorker is a worker whose run counts its calls and fails
// while fail is set.
func countingWorker(coalesce time.Duration) (*worker, *atomic.Int32, *atomic.Bool) {
	var runs atomic.Int32
	var fail atomic.Bool
	run := func(context.Context) error {
		runs.Add(1)
		if fail.Load() {
			return errors.New("run failed")
		}
		return nil
	}
	return newWorker(1, coalesce, time.Millisecond, 4*time.Millisecond, run, nil), &runs, &fail
}

func waitRuns(t *testing.T, runs *atomic.Int32, want int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs after 5s, want %d", runs.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerCoalescesBurst: notifications inside one coalesce window
// cost one run.
func TestWorkerCoalescesBurst(t *testing.T) {
	w, runs, _ := countingWorker(20 * time.Millisecond)
	w.Start()
	defer w.Stop()
	for i := 0; i < 10; i++ {
		w.Notify()
	}
	waitRuns(t, runs, 1)
	time.Sleep(60 * time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("a burst of 10 notifications ran %d times, want 1", n)
	}
}

// TestWorkerRestart: Start and Stop report whether they changed
// anything, and a stopped worker runs again once restarted.
func TestWorkerRestart(t *testing.T) {
	w, runs, _ := countingWorker(time.Millisecond)
	if !w.Start() || w.Start() {
		t.Fatal("Start must report true once, then false")
	}
	if !w.Stop() || w.Stop() {
		t.Fatal("Stop must report true once, then false")
	}
	w.Notify() // kept pending across the restart
	w.Start()
	defer w.Stop()
	waitRuns(t, runs, 1)
}

// TestWorkerRetriesWithBackoff: the loop retries a failing run until
// it succeeds, reporting each failure; Flush retries until its context
// ends and returns the last failure.
func TestWorkerRetriesWithBackoff(t *testing.T) {
	w, runs, fail := countingWorker(time.Millisecond)
	var retries atomic.Int32
	w.onRetry = func(error, time.Duration) { retries.Add(1) }
	fail.Store(true)
	w.Start()
	w.Notify()
	waitRuns(t, runs, 3)
	fail.Store(false)
	waitRuns(t, runs, retries.Load()+1)
	w.Stop()
	if w.backingOff() {
		t.Fatal("a stopped worker reports backing off")
	}

	fail.Store(true)
	before := runs.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := w.Flush(ctx); err == nil || err.Error() != "run failed" {
		t.Fatalf("Flush = %v, want the run's error", err)
	}
	if runs.Load()-before < 2 {
		t.Fatalf("Flush ran %d times in 30ms at a 1-4ms backoff", runs.Load()-before)
	}
	fail.Store(false)
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerConcurrent: Notify, Flush, Start and Stop from several
// goroutines at once, for the race detector; every Flush of a run that
// succeeds returns nil and the worker ends stopped.
func TestWorkerConcurrent(t *testing.T) {
	w, runs, _ := countingWorker(time.Millisecond)
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				w.Notify()
				switch i % 5 {
				case 0:
					w.Start()
				case 3:
					w.Stop()
				case 4:
					err = w.Flush(context.Background())
				}
				w.backingOff()
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	w.Stop()
	if runs.Load() == 0 || !w.Start() {
		t.Fatalf("after the storm: %d runs, and Start must find the worker stopped", runs.Load())
	}
	w.Stop()
}
