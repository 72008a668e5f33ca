package parallel_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 500
		seen := make([]int32, n)
		err := parallel.ForEach(context.Background(), n, workers, func(i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexedWritesMatchSequential(t *testing.T) {
	n := 200
	seq := make([]int, n)
	par := make([]int, n)
	body := func(out []int) func(int) error {
		return func(i int) error {
			out[i] = i * i
			return nil
		}
	}
	if err := parallel.ForEach(context.Background(), n, 1, body(seq)); err != nil {
		t.Fatal(err)
	}
	if err := parallel.ForEach(context.Background(), n, 8, body(par)); err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak int32
	err := parallel.ForEach(context.Background(), 100, workers, func(i int) error {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		atomic.AddInt32(&inFlight, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&peak); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestForEachReturnsLowestObservedError(t *testing.T) {
	errBoom := errors.New("boom")
	err := parallel.ForEach(context.Background(), 50, 4, func(i int) error {
		if i == 3 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("got %v, want %v", err, errBoom)
	}
}

func TestForEachErrorStopsDispatch(t *testing.T) {
	var ran int32
	errHalt := errors.New("halt")
	_ = parallel.ForEach(context.Background(), 10_000, 2, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errHalt
		}
		return nil
	})
	if got := atomic.LoadInt32(&ran); got == 10_000 {
		t.Error("error did not stop dispatch: every index ran")
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := parallel.ForEach(ctx, 100_000, 4, func(i int) error {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got == 100_000 {
		t.Error("cancellation did not stop dispatch")
	}
}

func TestForEachRepanicsOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if s, ok := r.(string); !ok || s != "kaboom" {
					t.Fatalf("workers=%d: panic value %v, want kaboom", workers, r)
				}
			}()
			_ = parallel.ForEach(context.Background(), 20, workers, func(i int) error {
				if i == 5 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

func TestForEachEmptyAndDoneContext(t *testing.T) {
	if err := parallel.ForEach(context.Background(), 0, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := parallel.ForEach(ctx, 10, 1, func(int) error {
		t.Fatal("body ran under a done context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if parallel.Workers(3) != 3 {
		t.Error("explicit worker count must pass through")
	}
	if parallel.Workers(0) < 1 || parallel.Workers(-5) < 1 {
		t.Error("non-positive worker counts must resolve to at least 1")
	}
}

// TestDoRunsJobsLikeForEach: Do runs every job, in order on one
// worker, returns the error of the lowest failing job, and re-raises a
// job's panic on the caller.
func TestDoRunsJobsLikeForEach(t *testing.T) {
	var order []int
	var mu sync.Mutex
	job := func(i int) func() error {
		return func() error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}
	}
	if err := parallel.Do(1, job(0), job(1), job(2)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("one worker ran %v, want [0 1 2]", order)
	}
	if err := parallel.Do(4); err != nil {
		t.Fatalf("no jobs: %v", err)
	}

	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 2, 3} {
		fail := func(err error) func() error { return func() error { return err } }
		if err := parallel.Do(workers, job(0), fail(errLow), fail(errHigh)); !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: Do = %v, want the lowest failing job's error", workers, err)
		}
	}

	for _, workers := range []int{1, 3} {
		func() {
			defer func() {
				if r := recover(); r != "job panic" {
					t.Fatalf("workers=%d: recovered %v, want the job's panic", workers, r)
				}
			}()
			_ = parallel.Do(workers, job(0), func() error { panic("job panic") }, job(2))
			t.Fatalf("workers=%d: panic not re-raised", workers)
		}()
	}
}
