package core

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// worker is the coalescing background loop behind Checkpointer and
// Trainer: Notify marks work pending without blocking; the loop waits
// a coalesce window so a burst costs one run, then calls run until it
// succeeds, waiting a jittered exponential backoff between failures. A
// notification that arrives during a run or a backoff re-arms the
// loop, so the newest state always gets its run. Flush runs the same
// retry synchronously. Start and Stop may alternate any number of
// times.
type worker struct {
	run        func(ctx context.Context) error
	coalesce   time.Duration
	backoff    time.Duration
	maxBackoff time.Duration
	// onRetry receives each failure of the background loop and the
	// backoff before the next attempt.
	onRetry func(err error, backoff time.Duration)

	// notify carries the pending signal to the loop; capacity 1 makes
	// every send non-blocking and every burst self-coalescing.
	notify chan struct{}

	mu      sync.Mutex
	rng     *rand.Rand
	waiting int // retries currently sleeping off a backoff
	cancel  context.CancelFunc
	done    chan struct{} // nil while stopped
}

func newWorker(seed int64, coalesce, backoff, maxBackoff time.Duration, run func(context.Context) error, onRetry func(error, time.Duration)) *worker {
	return &worker{
		run:        run,
		coalesce:   coalesce,
		backoff:    backoff,
		maxBackoff: maxBackoff,
		onRetry:    onRetry,
		notify:     make(chan struct{}, 1),
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Notify marks work pending and wakes the loop. It never blocks.
func (w *worker) Notify() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// Start launches the loop and reports whether it was stopped before.
//
//garlint:allow ctxpass -- owns the background goroutine's lifetime: the root context lives until Stop, not until any caller returns
func (w *worker) Start() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done != nil {
		return false
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.done = cancel, make(chan struct{})
	go w.loop(ctx, w.done)
	return true
}

// Stop halts the loop, waiting for a run in progress to return, and
// reports whether it was running.
func (w *worker) Stop() bool {
	w.mu.Lock()
	cancel, done := w.cancel, w.done
	w.cancel, w.done = nil, nil
	w.mu.Unlock()
	if done == nil {
		return false
	}
	cancel()
	<-done
	return true
}

// Flush runs the work now, retrying with backoff until it succeeds or
// ctx ends; it then returns the last failure.
func (w *worker) Flush(ctx context.Context) error {
	return w.retry(ctx, nil)
}

// backingOff reports whether a retry is waiting out its backoff.
func (w *worker) backingOff() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waiting > 0
}

func (w *worker) loop(ctx context.Context, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.notify:
		}
		// Coalesce: let the burst settle so it costs one run.
		if !sleep(ctx, w.coalesce) {
			return
		}
		// Absorb everything that arrived during the window: the run
		// below reads the newest state, covering them all.
		select {
		case <-w.notify:
		default:
		}
		if w.retry(ctx, w.onRetry) != nil {
			return // stopped while backing off
		}
	}
}

// retry calls run until it succeeds or ctx ends, reporting each
// failure to onRetry (when set) and waiting a jittered backoff that
// doubles up to maxBackoff.
func (w *worker) retry(ctx context.Context, onRetry func(error, time.Duration)) error {
	backoff := w.backoff
	for {
		err := w.run(ctx)
		if err == nil {
			return nil
		}
		if onRetry != nil {
			onRetry(err, backoff)
		}
		if !w.wait(ctx, backoff) {
			return err
		}
		backoff = min(backoff*2, w.maxBackoff)
	}
}

// wait sleeps a delay drawn from [d/2, d), so synchronized retry
// storms decorrelate, and reports whether it slept the whole delay.
// While it sleeps, backingOff reports true.
func (w *worker) wait(ctx context.Context, d time.Duration) bool {
	w.mu.Lock()
	half := d / 2
	d = half + time.Duration(w.rng.Int63n(int64(half)+1))
	w.waiting++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.waiting--
		w.mu.Unlock()
	}()
	return sleep(ctx, d)
}

// sleep waits d and reports whether ctx was still live at the end.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
