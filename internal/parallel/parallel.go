// Package parallel provides the bounded fan-out primitive of the
// translation hot path: ForEach runs an indexed body across a fixed
// number of worker goroutines with context cancellation and panic
// propagation that preserves the per-stage recover boundaries of
// internal/core — a panic inside a worker is re-raised on the calling
// goroutine, so runStage still converts it into a typed StageError
// instead of the process dying on an unrecovered goroutine panic.
//
// The package is deliberately tiny and dependency-free: results are
// communicated by writing to caller-owned slices at the body's index,
// which keeps parallel output byte-identical to the sequential order
// regardless of worker scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: values below 1 mean "one
// worker per available CPU" (GOMAXPROCS), anything else is returned
// unchanged.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (Workers semantics: <1 means GOMAXPROCS). It returns when
// every dispatched call has finished.
//
//   - Cancellation: once ctx is done no new index is dispatched and
//     ForEach returns the context error (in-flight bodies finish; fn
//     should observe ctx itself if bodies are slow).
//   - Errors: the first failing index stops dispatch; the error of the
//     lowest failing index that was observed is returned.
//   - Panics: a panic in fn stops dispatch, and after all workers have
//     drained the original panic value is re-raised on the calling
//     goroutine, so callers' recover boundaries behave exactly as if
//     fn had been called inline.
//
// With workers resolving to 1 (or n == 1) the bodies run inline on the
// calling goroutine in index order, with no goroutine overhead — this
// is the sequential baseline the determinism tests compare against.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	return forEach(ctx.Err, n, workers, fn)
}

// Do runs a fixed set of jobs the way ForEach runs its indices — at
// most workers at a time, inline and in order when that resolves to
// one, the error of the lowest failing job returned, a panic re-raised
// on the caller — but with no cancellation: it is for work that has no
// caller context and must run to completion.
func Do(workers int, jobs ...func() error) error {
	return forEach(func() error { return nil }, len(jobs), workers, func(i int) error { return jobs[i]() })
}

// forEach is ForEach with cancellation read from cancelled, which
// returns the error to stop with (nil while running).
//
//garlint:allow nopanic -- re-raises a worker panic on the caller so stage recover boundaries see it
func forEach(cancelled func() error, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return cancelled()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := cancelled(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next int64 = -1 // atomically incremented work cursor
		stop atomic.Bool

		mu       sync.Mutex
		firstIdx int
		firstErr error
		panicked bool
		panicVal any
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		if err := fn(i); err != nil {
			fail(i, err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && cancelled() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()

	if panicked {
		panic(panicVal)
	}
	if firstErr != nil {
		return firstErr
	}
	return cancelled()
}
