package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/checkpoint"
)

// CheckpointerConfig tunes the background checkpointer; the zero value
// gives sensible serving defaults.
type CheckpointerConfig struct {
	// Keep is the retention: after every successful write all but the
	// newest Keep generations are pruned. Default 3, minimum 1.
	Keep int
	// Coalesce is the quiet window after a publish notification before
	// the write starts, so a burst of publications (a Prepare
	// immediately followed by its Train, a rapid double reload)
	// produces one checkpoint instead of several. Default 250ms.
	Coalesce time.Duration
	// Backoff and MaxBackoff bound the jittered exponential delay
	// between retries of a failed write. Defaults 500ms and 30s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Logf, when set, receives one line per completed write, retry and
	// prune problem. Default: silent.
	Logf func(format string, args ...any)
}

func (cfg *CheckpointerConfig) fill() {
	if cfg.Keep < 1 {
		cfg.Keep = 3
	}
	if cfg.Coalesce <= 0 {
		cfg.Coalesce = 250 * time.Millisecond
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// CheckpointStats is a point-in-time snapshot of the checkpointer's
// counters, surfaced by serving health endpoints.
type CheckpointStats struct {
	// LastGeneration and LastUnix identify the newest successfully
	// written checkpoint (zero before the first write this process).
	LastGeneration uint64 `json:"last_generation"`
	LastUnix       int64  `json:"last_unix"`
	// Writes counts successful checkpoint writes, Failures failed
	// attempts (each retried with backoff), Pruned files removed by
	// retention.
	Writes   uint64 `json:"writes"`
	Failures uint64 `json:"failures"`
	Pruned   uint64 `json:"pruned"`
	// LastError describes the most recent failure, cleared by the next
	// successful write.
	LastError string `json:"last_error,omitempty"`
	// Pending reports a publication that has not been checkpointed yet.
	Pending bool `json:"pending"`
}

// Checkpointer persists the serving snapshot in the background: it
// registers itself as the System's publish hook, coalesces bursts of
// publications, writes one checkpoint per settled state through the
// Store's crash-safe path, prunes old generations, and retries failed
// writes with jittered exponential backoff. Flush writes synchronously
// — the graceful-shutdown path.
type Checkpointer struct {
	sys   *System
	store *checkpoint.Store
	cfg   CheckpointerConfig

	// notify carries the dirty signal from the publish hook to the
	// writer goroutine; capacity 1 makes every send non-blocking and
	// every burst self-coalescing.
	notify chan struct{}

	// writeMu serializes writeOnce between the background loop and
	// Flush, so a shutdown flush cannot interleave with a retry.
	writeMu sync.Mutex
	// durable reports that the store holds the state of publication
	// written — one this checkpointer wrote, or the one RecoverCheckpoint
	// restored from the same store. writeMu-guarded.
	durable bool
	written uint64

	mu      sync.Mutex
	stats   CheckpointStats
	rng     *rand.Rand
	started bool
	cancel  context.CancelFunc
	done    chan struct{}
}

// NewCheckpointer couples a system with a checkpoint store. Call Start
// to begin background writes; Flush works with or without Start.
func NewCheckpointer(sys *System, store *checkpoint.Store, cfg CheckpointerConfig) *Checkpointer {
	cfg.fill()
	c := &Checkpointer{
		sys:    sys,
		store:  store,
		cfg:    cfg,
		notify: make(chan struct{}, 1),
		rng:    rand.New(rand.NewSource(sys.Opts.Seed + 0x6172)),
	}
	if r := sys.recovered.Load(); r != nil && r.store == store {
		c.durable, c.written = true, r.pub
	}
	return c
}

// Notify marks the serving state dirty and wakes the writer. It never
// blocks, so it is safe as a publish hook (it runs under the system's
// write lock). Calling it by hand schedules an extra checkpoint — the
// cold-start path uses that to persist the initially built state.
func (c *Checkpointer) Notify() {
	c.mu.Lock()
	c.stats.Pending = true
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// Start registers the publish hook and launches the background writer.
// A second Start is a no-op.
//
//garlint:allow ctxpass -- owns the background goroutine's lifetime: the root context lives until Stop, not until any caller returns
func (c *Checkpointer) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.done = make(chan struct{})
	c.mu.Unlock()

	c.sys.SetPublishHook(c.Notify)
	go c.loop(ctx)
}

// Stop unregisters the hook and stops the background writer, waiting
// for an in-progress write to finish. It does not write a final
// checkpoint — call Flush for that (typically right after Stop, once
// no more mutations can arrive).
func (c *Checkpointer) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	cancel, done := c.cancel, c.done
	c.mu.Unlock()

	c.sys.SetPublishHook(nil)
	cancel()
	<-done
}

// Shutdown stops the background writer and synchronously flushes the
// current serving state, bounded by ctx — the graceful-shutdown and
// tenant-eviction sequence in one call. A stopped checkpointer may be
// started again (an aborted eviction does exactly that).
func (c *Checkpointer) Shutdown(ctx context.Context) error {
	c.Stop()
	return c.Flush(ctx)
}

// Flush synchronously checkpoints the current serving state, retrying
// with backoff until it succeeds or ctx ends. A system with nothing to
// persist (not Ready yet), or whose published state is already the one
// in the store, flushes trivially.
func (c *Checkpointer) Flush(ctx context.Context) error {
	backoff := c.cfg.Backoff
	for {
		err := c.writeOnce()
		if err == nil || errors.Is(err, ErrNotReady) {
			return nil
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(c.jitter(backoff)):
		}
		backoff = min(backoff*2, c.cfg.MaxBackoff)
	}
}

// Stats returns a snapshot of the checkpointer's counters.
func (c *Checkpointer) Stats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// loop is the background writer: wait dirty → coalesce → write, with
// jittered exponential backoff on failure. A publication arriving
// while a write (or backoff) is in progress re-arms the loop, so the
// newest state is always the one that ends up on disk.
func (c *Checkpointer) loop(ctx context.Context) {
	defer close(c.done)
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.notify:
		}
		// Coalesce: let the burst settle so Prepare-then-Train (two
		// publications) costs one checkpoint, not two.
		select {
		case <-ctx.Done():
			return
		case <-time.After(c.cfg.Coalesce):
		}
		// Absorb everything that arrived during the window: the write
		// below reads the state published last, covering them all.
		select {
		case <-c.notify:
		default:
		}

		backoff := c.cfg.Backoff
		for {
			err := c.writeOnce()
			if err == nil || errors.Is(err, ErrNotReady) {
				// ErrNotReady is a bare Prepare with no models yet:
				// nothing durable to write until the next publication.
				break
			}
			c.cfg.Logf("checkpoint write failed (retrying in ~%s): %v", backoff, err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(c.jitter(backoff)):
			}
			backoff = min(backoff*2, c.cfg.MaxBackoff)
		}
	}
}

// writeOnce exports, writes and prunes one checkpoint, updating the
// counters. It skips the write when the published state is the one the
// store already holds: publications are numbered, so a publish that
// lands while a write is in flight still counts as unwritten.
// Serialized against concurrent Flush/loop writes.
func (c *Checkpointer) writeOnce() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()

	st := c.sys.state.Load()
	if c.durable && st.pub == c.written {
		c.mu.Lock()
		c.stats.Pending = false
		c.mu.Unlock()
		return nil
	}
	m, sections, err := c.sys.exportState(st)
	if err == nil {
		err = c.store.Write(m, sections)
	}
	if err == nil {
		c.durable, c.written = true, st.pub
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if !errors.Is(err, ErrNotReady) {
			c.stats.Failures++
			c.stats.LastError = err.Error()
		}
		return err
	}
	c.stats.Writes++
	c.stats.LastGeneration = m.Generation
	c.stats.LastUnix = time.Now().Unix()
	c.stats.LastError = ""
	c.stats.Pending = false

	removed, perr := c.store.Prune(c.cfg.Keep)
	c.stats.Pruned += uint64(len(removed))
	if perr != nil {
		// Retention failure never fails the write: the new checkpoint
		// is durable, there is just more history than asked for.
		c.cfg.Logf("checkpoint prune: %v", perr)
	}
	c.cfg.Logf("checkpoint generation %d written (%d sections, kept %d)", m.Generation, len(sections), c.cfg.Keep)
	return nil
}

// jitter spreads a delay over [d/2, d) so synchronized retry storms
// decorrelate.
func (c *Checkpointer) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}
