// Package fleet serves databases from one process. A Registry maps
// tenant (database) name → an isolated serving System, keeping a
// bounded working set resident: cold tenants are activated on first
// use — warm-started from their per-tenant checkpoint directory when
// one exists, cold-built through the caller's Source otherwise — and
// the least-recently-used idle tenant is evicted when the set is full,
// but only after its state has been flushed to a checkpoint. One
// database is a registry of one tenant (Config.FlatState keeps its
// state directly in the state directory).
//
// The registry is the only serving code that wires a tenant's memory
// budget, checkpoint store and checkpointer, feedback WAL and trainer,
// and the only health renderer.
//
// Isolation is the point. Every tenant owns its admission controller
// and circuit breaker, sized from fleet-wide limits, so one saturated
// or failing tenant sheds 429s or degrades to retrieval-only while its
// siblings serve normally. Activation is single-flight: a stampede of
// requests for a cold tenant builds the snapshot once while everyone
// waits on the same round. Health rolls up per-tenant state
// (ok|degraded|unavailable, activation/eviction/shed/breaker counters)
// into one fleet view.
//
// Lock ordering: capMu (working-set accounting) before any tenant.mu;
// never two tenant mutexes at once.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/gar"
	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/checkpoint"
	"repro/internal/feedback"
)

// ErrUnknownTenant reports a request for a name the registry does not
// know. The HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("fleet: unknown tenant")

// ErrClosed reports a request arriving after Shutdown began.
var ErrClosed = errors.New("fleet: registry shut down")

// ErrReloadInProgress reports a reload refused because the same tenant
// is already reloading. Reloads of different tenants proceed in
// parallel; the HTTP layer maps this to 409 for the one that conflicts.
var ErrReloadInProgress = errors.New("fleet: reload already in progress")

// SaturatedError reports an activation shed because the working set is
// full and no tenant is evictable (every resident tenant has pinned
// requests). The HTTP layer maps it to 429 with a Retry-After hint.
type SaturatedError struct {
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return "fleet: working set saturated, no evictable tenant"
}

// Source builds tenant systems on the registry's behalf; the command
// layer implements it over its spec files. Implementations must be safe
// for concurrent use — different tenants activate and reload in
// parallel.
type Source interface {
	// Cold assembles the tenant's System shell: schema bound, nothing
	// prepared or trained. Called once per activation, before the
	// registry tries a checkpoint warm start.
	Cold(name string) (*gar.System, error)
	// Deploy cold-builds the tenant's serving state (prepare + train or
	// model load) when no checkpoint could be recovered. Returning
	// deployed=false with a nil error means the source has nothing to
	// build from — a schema-only tenant that activates empty and serves
	// 503 until a reload supplies state.
	Deploy(ctx context.Context, name string, sys *gar.System) (deployed bool, err error)
	// Reload rebuilds the tenant's state and swaps it into the live
	// system with zero downtime.
	Reload(ctx context.Context, name string, sys *gar.System) error
}

// FeedbackSource is the optional Source extension the online feedback
// loop needs: the committed base corpus each retraining cycle folds
// accepted feedback into. A registry with Config.Feedback set only
// attaches feedback logs and trainers when its Source implements it.
type FeedbackSource interface {
	FeedbackBase(name string) (gar.BaseData, error)
}

// Config tunes a Registry. The zero value gets serving defaults.
type Config struct {
	// MaxActive bounds the working set: how many tenants may be
	// resident (activating, active or evicting) at once (default 8).
	MaxActive int
	// IdleAfter is how long a tenant may sit idle (no pinned handles)
	// before EvictIdle reclaims it; 0 disables idle eviction.
	IdleAfter time.Duration

	// MaxInFlight and MaxQueue are the fleet-wide admission limits from
	// which per-tenant budgets are derived (defaults 64 and 2×).
	MaxInFlight int
	MaxQueue    int
	// TenantInFlight and TenantQueue override the derived per-tenant
	// split MaxInFlight/MaxActive and MaxQueue/MaxActive (minimum 1).
	TenantInFlight int
	TenantQueue    int
	// RetryAfter is the back-off hint attached to sheds (default 1s).
	RetryAfter time.Duration

	// BreakerFailures and BreakerCooldown tune each tenant's re-ranking
	// circuit breaker; NoBreaker disables breakers fleet-wide.
	BreakerFailures int
	BreakerCooldown time.Duration
	NoBreaker       bool

	// MemLimit caps the process-wide bytes of retained tenant state
	// (candidate pools, embeddings, translation caches); 0 disables
	// memory governance. Tenants that hit their share degrade to
	// truncated pools instead of growing.
	MemLimit int64
	// TenantMemLimit caps each tenant's share of MemLimit (default
	// MemLimit/MaxActive). 0 with MemLimit set bounds tenants only by
	// the process root.
	TenantMemLimit int64

	// StateDir is the root of the multi-tenant state tree: a tenant's
	// checkpoints live in {StateDir}/{tenant} and its feedback WAL in
	// {StateDir}/{tenant}/feedback. Empty disables durability — evicting
	// a tenant then drops state that a re-activation must rebuild.
	StateDir string
	// FlatState lays the registry's one tenant out directly in StateDir
	// (checkpoints in StateDir, WAL in StateDir/feedback): the
	// single-database layout of `gar serve -spec`.
	// Register refuses a second tenant.
	FlatState bool
	// Keep is the per-tenant checkpoint retention (default 3).
	Keep int

	// ActivateTimeout bounds one cold build (default 5m);
	// EvictFlushTimeout bounds the synchronous eviction flush
	// (default 30s).
	ActivateTimeout   time.Duration
	EvictFlushTimeout time.Duration

	// Feedback enables the per-tenant online learning loop: a durable
	// feedback WAL in the tenant's state directory plus a background
	// trainer per resident tenant. Requires StateDir and a Source that
	// implements FeedbackSource; otherwise it is silently inert.
	Feedback bool
	// TrainInterval and ShadowThreshold forward to every tenant's
	// trainer (see gar.TrainerConfig).
	TrainInterval   time.Duration
	ShadowThreshold float64
	// TrainBudget bounds how many tenants may retrain concurrently
	// (default 1): retraining is CPU-heavy, so tenants take turns
	// instead of starving the serving path.
	TrainBudget int

	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Clock overrides the idle/LRU time source (tests inject a fake).
	Clock func() time.Time
}

func (c *Config) fill() {
	if c.MaxActive <= 0 {
		c.MaxActive = 8
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInFlight
	}
	if c.TenantInFlight <= 0 {
		c.TenantInFlight = max(1, c.MaxInFlight/c.MaxActive)
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = max(1, c.MaxQueue/c.MaxActive)
	}
	if c.TenantMemLimit <= 0 && c.MemLimit > 0 {
		c.TenantMemLimit = c.MemLimit / int64(c.MaxActive)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Keep < 1 {
		c.Keep = 3
	}
	if c.ActivateTimeout <= 0 {
		c.ActivateTimeout = 5 * time.Minute
	}
	if c.EvictFlushTimeout <= 0 {
		c.EvictFlushTimeout = 30 * time.Second
	}
	if c.TrainBudget <= 0 {
		c.TrainBudget = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// tenantState is a tenant's lifecycle position. Transitions:
// cold → activating → active → evicting → cold, with activating → cold
// on a failed build and evicting → active on an aborted flush.
type tenantState int

const (
	stateCold tenantState = iota
	stateActivating
	stateActive
	stateEvicting
)

func (s tenantState) String() string {
	switch s {
	case stateCold:
		return "cold"
	case stateActivating:
		return "activating"
	case stateActive:
		return "active"
	case stateEvicting:
		return "evicting"
	}
	return "unknown"
}

// Counters are a tenant's lifecycle tallies, reported by Health.
type Counters struct {
	// Activations counts completed activations; WarmStarts of them
	// restored a checkpoint and ColdBuilds ran the source's Deploy.
	Activations uint64 `json:"activations"`
	WarmStarts  uint64 `json:"warm_starts"`
	ColdBuilds  uint64 `json:"cold_builds"`
	// ActivationFailures counts builds that errored (tenant back to
	// cold).
	ActivationFailures uint64 `json:"activation_failures,omitempty"`
	// Evictions counts completed evictions; EvictionsAborted counts
	// evictions rolled back because the state could not be flushed.
	Evictions        uint64 `json:"evictions"`
	EvictionsAborted uint64 `json:"evictions_aborted,omitempty"`
	// Reloads counts completed zero-downtime reloads.
	Reloads uint64 `json:"reloads,omitempty"`
}

// tenant is one registered database. The admission controller and
// breaker are created at Register and survive eviction, so budgets and
// trip history are per-tenant facts, not per-activation ones.
type tenant struct {
	name string
	ctl  *admit.Controller
	br   *breaker.Breaker // nil when breakers are disabled
	// budget is this tenant's share of the fleet memory budget; like
	// the controller and breaker it is created at Register and survives
	// eviction, so peak/denial history is a per-tenant fact. Nil when
	// memory governance is disabled.
	budget *gar.MemBudget

	// reloadMu serializes reloads of this tenant only.
	reloadMu sync.Mutex

	// fbAccepted and fbRejected tally feedback submissions across the
	// tenant's whole lifetime (they survive eviction, like the breaker).
	fbAccepted atomic.Uint64
	fbRejected atomic.Uint64

	mu       sync.Mutex
	state    tenantState
	done     chan struct{} // closes when the current transition settles
	sys      *gar.System   // non-nil while active/evicting
	ckptr    *gar.Checkpointer
	flog     *feedback.Log // non-nil while active/evicting with feedback on
	trainer  *gar.Trainer
	refs     int // outstanding handles pinning the tenant
	lastUsed time.Time
	lastErr  error
	counters Counters
}

// Registry is the fleet: a bounded working set of per-tenant systems.
// Use New; the zero value is not valid.
type Registry struct {
	src Source
	cfg Config

	mu      sync.Mutex // guards tenants map and closed
	tenants map[string]*tenant
	closed  bool

	capMu  sync.Mutex // serializes working-set accounting
	active int        // tenants in activating|active|evicting

	// trainSem is the fleet-wide retraining budget: TrainBudget tokens,
	// one held per in-flight training cycle.
	trainSem chan struct{}

	// memRoot is the process-wide memory budget every tenant's share
	// chains to; nil when Config.MemLimit is unset.
	memRoot *gar.MemBudget

	shedSaturated atomic.Uint64
}

// New creates an empty registry; add tenants with Register.
func New(src Source, cfg Config) *Registry {
	cfg.fill()
	r := &Registry{
		src:      src,
		cfg:      cfg,
		tenants:  map[string]*tenant{},
		trainSem: make(chan struct{}, cfg.TrainBudget),
	}
	if cfg.MemLimit > 0 {
		r.memRoot = gar.NewMemBudget("fleet", cfg.MemLimit)
	}
	return r
}

// trainGate claims one slot of the fleet-wide retraining budget,
// blocking (up to ctx) while TrainBudget other tenants are mid-cycle.
// It is every tenant trainer's Gate.
func (r *Registry) trainGate(ctx context.Context) (func(), error) {
	select {
	case r.trainSem <- struct{}{}:
		return func() { <-r.trainSem }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("fleet: waiting for training budget: %w", ctx.Err())
	}
}

// Register adds a tenant name to the registry, cold; the first Acquire
// activates it. Names are validated with the checkpoint tree's rules so
// a tenant name can never escape the state directory or the URL space.
func (r *Registry) Register(name string) error {
	if !checkpoint.ValidTenantName(name) {
		return fmt.Errorf("fleet: %w: %q", checkpoint.ErrTenantName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.tenants[name]; ok {
		return fmt.Errorf("fleet: tenant %q already registered", name)
	}
	if r.cfg.FlatState && len(r.tenants) > 0 {
		return fmt.Errorf("fleet: tenant %q: a flat state directory holds one tenant", name)
	}
	t := &tenant{
		name:  name,
		state: stateCold,
		ctl: admit.New(admit.Config{
			MaxInFlight: r.cfg.TenantInFlight,
			MaxQueue:    r.cfg.TenantQueue,
			RetryAfter:  r.cfg.RetryAfter,
		}),
	}
	if !r.cfg.NoBreaker {
		t.br = breaker.New(breaker.Config{
			FailureThreshold: r.cfg.BreakerFailures,
			Cooldown:         r.cfg.BreakerCooldown,
		})
	}
	if r.memRoot != nil {
		t.budget = r.memRoot.Child(name, r.cfg.TenantMemLimit)
	}
	r.tenants[name] = t
	return nil
}

// Names lists the registered tenants, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// all snapshots the tenant set (the map only grows, entries are never
// replaced, so iterating the snapshot is race-free).
func (r *Registry) all() []*tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// Handle pins an active tenant's serving system: while any handle is
// outstanding the tenant cannot be evicted. Release it when the
// request finishes (Release is idempotent).
type Handle struct {
	r       *Registry
	t       *tenant
	sys     *gar.System
	flog    *feedback.Log
	trainer *gar.Trainer
	once    sync.Once
}

// Tenant is the handle's tenant name.
func (h *Handle) Tenant() string { return h.t.name }

// Sys is the pinned serving system.
func (h *Handle) Sys() *gar.System { return h.sys }

// FeedbackLog is the tenant's durable feedback WAL, nil when the
// online feedback loop is not enabled for this fleet.
func (h *Handle) FeedbackLog() *feedback.Log { return h.flog }

// Trainer is the tenant's background trainer, nil when the online
// feedback loop is not enabled.
func (h *Handle) Trainer() *gar.Trainer { return h.trainer }

// CountFeedback tallies one feedback submission outcome for the
// tenant's health counters.
func (h *Handle) CountFeedback(accepted bool) {
	if accepted {
		h.t.fbAccepted.Add(1)
	} else {
		h.t.fbRejected.Add(1)
	}
}

// Admit runs the tenant's admission controller; the semantics are
// admit.Controller.Acquire's.
func (h *Handle) Admit(ctx context.Context) (release func(), err error) {
	return h.t.ctl.Acquire(ctx)
}

// Release unpins the tenant and stamps its LRU clock.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.t.mu.Lock()
		h.t.refs--
		h.t.lastUsed = h.r.cfg.Clock()
		h.t.mu.Unlock()
	})
}

// Acquire returns a handle on the named tenant's serving system,
// activating the tenant first if it is cold: warm-started from its
// newest valid checkpoint when StateDir holds one, cold-built through
// the Source otherwise. Activation is single-flight — concurrent
// acquirers of a cold tenant wait on the same build. A full working
// set evicts its least-recently-used idle tenant to make room, or
// sheds with *SaturatedError when every resident tenant is pinned.
func (r *Registry) Acquire(ctx context.Context, name string) (*Handle, error) {
	r.mu.Lock()
	t, closed := r.tenants[name], r.closed
	r.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	for {
		t.mu.Lock()
		switch t.state {
		case stateActive:
			// Returned even past ctx's deadline: the deadline bounds
			// waiting for a transition, and the caller's own next step
			// (admission, translation) reports it.
			t.refs++
			t.lastUsed = r.cfg.Clock()
			h := &Handle{r: r, t: t, sys: t.sys, flog: t.flog, trainer: t.trainer}
			t.mu.Unlock()
			return h, nil
		case stateActivating, stateEvicting:
			settling := t.done
			wasActivating := t.state == stateActivating
			t.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-settling:
			}
			if !wasActivating {
				continue // eviction settled; loop re-activates
			}
			t.mu.Lock()
			failed := t.state == stateCold && t.lastErr != nil
			err := t.lastErr
			t.mu.Unlock()
			if failed {
				return nil, fmt.Errorf("fleet: activating tenant %s: %w", name, err)
			}
		case stateCold:
			t.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			result, err := r.beginActivation(t)
			if err != nil {
				return nil, err
			}
			if result == nil {
				continue // another acquirer launched the round; wait on it
			}
			// Wait on the round this call launched and return its
			// outcome: a round that already failed must not be read as
			// a cold tenant to activate again.
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case err := <-result:
				if err != nil {
					return nil, fmt.Errorf("fleet: activating tenant %s: %w", name, err)
				}
			}
		}
	}
}

// beginActivation moves a cold tenant into activating: it reserves a
// working-set slot (marking the LRU idle tenant for eviction when the
// set is full) and launches the single-flight activation goroutine. It
// returns a channel that receives the round's outcome (nil on success)
// once the round has settled, or a nil channel when the tenant was no
// longer cold. A full set with no evictable tenant sheds with
// *SaturatedError.
//
//garlint:allow goexit -- deliberately detached single-flight activation: waiters join via t.done, the work is bounded by ActivateTimeout, and activate closes the channel on every path
func (r *Registry) beginActivation(t *tenant) (<-chan error, error) {
	r.capMu.Lock()
	t.mu.Lock()
	if t.state != stateCold { // lost the race; the caller's loop waits
		t.mu.Unlock()
		r.capMu.Unlock()
		return nil, nil
	}
	t.mu.Unlock()

	var victim *tenant
	if r.active >= r.cfg.MaxActive {
		victim = r.markVictimLocked(t)
		if victim == nil {
			r.capMu.Unlock()
			r.shedSaturated.Add(1)
			return nil, &SaturatedError{RetryAfter: r.cfg.RetryAfter}
		}
	}

	t.mu.Lock()
	t.state = stateActivating
	t.done = make(chan struct{})
	t.lastErr = nil
	t.mu.Unlock()
	r.active++
	r.capMu.Unlock()

	result := make(chan error, 1)
	go func() { result <- r.activate(t, victim) }()
	return result, nil
}

// markVictimLocked picks the least-recently-used idle active tenant and
// marks it evicting, or returns nil when every candidate is pinned.
// Callers hold capMu (which serializes victim selection); tenant
// mutexes are taken one at a time.
func (r *Registry) markVictimLocked(exclude *tenant) *tenant {
	tried := map[*tenant]bool{}
	for {
		var best *tenant
		var bestUsed time.Time
		for _, c := range r.all() {
			if c == exclude || tried[c] {
				continue
			}
			c.mu.Lock()
			idle := c.state == stateActive && c.refs == 0
			used := c.lastUsed
			c.mu.Unlock()
			if idle && (best == nil || used.Before(bestUsed)) {
				best, bestUsed = c, used
			}
		}
		if best == nil {
			return nil
		}
		best.mu.Lock()
		if best.state == stateActive && best.refs == 0 {
			best.state = stateEvicting
			best.done = make(chan struct{})
			best.mu.Unlock()
			return best
		}
		// A request pinned it between the scan and the mark; try the
		// next-oldest candidate.
		best.mu.Unlock()
		tried[best] = true
	}
}

// activate completes a pending eviction (making room before the new
// snapshot exists, so residency never exceeds MaxActive), then builds
// the tenant. It runs detached from whichever request arrived first:
// the build must survive that request's deadline, because every waiter
// of the round — present and future — shares its result. It returns
// the round's failure, nil once the tenant is active.
//
//garlint:allow ctxpass -- the activation's lifetime belongs to the registry, not to the request that happened to trigger it; its bound is ActivateTimeout
func (r *Registry) activate(t *tenant, victim *tenant) error {
	if victim != nil {
		if err := r.finishEvict(victim); err != nil {
			// The victim's state could not be made durable; it stays
			// resident and the cold tenant sheds instead — shedding is
			// recoverable, losing a dirty tenant's last generation is
			// not.
			r.shedSaturated.Add(1)
			return r.failActivation(t, &SaturatedError{RetryAfter: r.cfg.RetryAfter})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ActivateTimeout)
	defer cancel()
	b, err := r.buildTenant(ctx, t)
	if err != nil {
		return r.failActivation(t, err)
	}
	t.mu.Lock()
	t.sys = b.sys
	t.ckptr = b.ckptr
	t.flog = b.flog
	t.trainer = b.trainer
	t.state = stateActive
	t.lastUsed = r.cfg.Clock()
	t.counters.Activations++
	if b.warm {
		t.counters.WarmStarts++
	} else if b.sys.Ready() {
		t.counters.ColdBuilds++
	}
	close(t.done)
	t.mu.Unlock()
	r.cfg.Logf("fleet: tenant %s activated (warm=%v, generation %d, pool %d)",
		t.name, b.warm, b.sys.Generation(), b.sys.PoolSize())
	return nil
}

// failActivation returns a tenant to cold, releasing its working-set
// slot and waking the round's waiters with the error, which it
// returns.
func (r *Registry) failActivation(t *tenant, err error) error {
	r.capMu.Lock()
	t.mu.Lock()
	t.state = stateCold
	t.sys = nil
	t.ckptr = nil
	t.lastErr = err
	t.counters.ActivationFailures++
	close(t.done)
	t.mu.Unlock()
	r.active--
	r.capMu.Unlock()
	r.cfg.Logf("fleet: tenant %s activation failed: %v", t.name, err)
	return err
}

// builtTenant is the product of one activation build.
type builtTenant struct {
	sys     *gar.System
	warm    bool
	ckptr   *gar.Checkpointer
	flog    *feedback.Log
	trainer *gar.Trainer
}

// tenantDir is the one place a tenant's on-disk layout is decided: its
// checkpoints live in the returned directory and its feedback WAL in
// {dir}/feedback. Empty when the registry has no StateDir.
func (r *Registry) tenantDir(name string) string {
	if r.cfg.StateDir == "" || r.cfg.FlatState {
		return r.cfg.StateDir
	}
	return filepath.Join(r.cfg.StateDir, name)
}

// buildTenant assembles a tenant's serving system: schema shell from
// the source, then a checkpoint warm start when the tenant's state
// directory has one, a source Deploy otherwise, and finally the
// tenant's breaker, a running background checkpointer and (when the
// feedback loop is on) the tenant's feedback WAL and background
// trainer.
func (r *Registry) buildTenant(ctx context.Context, t *tenant) (builtTenant, error) {
	sys, err := r.src.Cold(t.name)
	if err != nil {
		return builtTenant{}, err
	}
	dir := r.tenantDir(t.name)
	if t.budget != nil {
		// Pool builds charge this tenant's share of the fleet budget.
		sys.SetResources(t.budget)
	}
	b := builtTenant{sys: sys}
	var store *checkpoint.Store
	if dir != "" {
		store, err = checkpoint.Open(dir)
		if err != nil {
			return builtTenant{}, err
		}
		if removed, cerr := store.CleanTemp(); cerr != nil {
			r.cfg.Logf("fleet: tenant %s: %v", t.name, cerr)
		} else if len(removed) > 0 {
			r.cfg.Logf("fleet: tenant %s: removed %d abandoned temp file(s)", t.name, len(removed))
		}
		ck, skipped, rerr := sys.RecoverCheckpoint(store)
		if rerr != nil {
			return builtTenant{}, rerr
		}
		for _, sk := range skipped {
			r.cfg.Logf("fleet: tenant %s: skipping checkpoint %s: %v", t.name, sk.Path, sk.Err)
		}
		if b.warm = ck != nil; b.warm {
			r.cfg.Logf("fleet: tenant %s: warm start from checkpoint generation %d (%d candidates)",
				t.name, ck.Manifest.Generation, sys.PoolSize())
		}
	}
	if !b.warm {
		if _, err = r.src.Deploy(ctx, t.name, sys); err != nil {
			return builtTenant{}, err
		}
	}
	if t.br != nil {
		sys.SetRerankBreaker(t.br)
	}
	if store != nil {
		name := t.name
		b.ckptr = sys.NewCheckpointer(store, gar.CheckpointerConfig{
			Keep: r.cfg.Keep,
			Logf: func(format string, args ...any) {
				r.cfg.Logf("fleet: tenant "+name+": "+format, args...)
			},
		})
		b.ckptr.Start()
		if !b.warm && sys.Ready() {
			b.ckptr.Notify() // persist the freshly built state
		}
	}
	if fsrc, ok := r.src.(FeedbackSource); ok && r.cfg.Feedback && store != nil {
		// The WAL lives inside the tenant's own state directory, so an
		// eviction+reactivation (or a restart) replays the same records.
		flog, ferr := feedback.Open(filepath.Join(dir, "feedback"), feedback.Config{})
		if ferr != nil {
			return builtTenant{}, fmt.Errorf("fleet: tenant %s feedback log: %w", t.name, ferr)
		}
		name := t.name
		b.flog = flog
		b.trainer = sys.NewTrainer(flog, store,
			func() (gar.BaseData, error) { return fsrc.FeedbackBase(name) },
			gar.TrainerConfig{
				Interval:        r.cfg.TrainInterval,
				ShadowThreshold: r.cfg.ShadowThreshold,
				Gate:            r.trainGate,
				Logf: func(format string, args ...any) {
					r.cfg.Logf("fleet: tenant "+name+": "+format, args...)
				},
			})
		b.trainer.Start()
		if b.flog.LastSeq() > 0 {
			// Feedback recorded before the last shutdown (or eviction)
			// may not have been trained on yet; wake the trainer to
			// fold it in.
			b.trainer.Notify()
		}
	}
	return b, nil
}

// finishEvict makes an evicting tenant's state durable and drops its
// snapshot. On a flush failure the eviction aborts: the tenant returns
// to active with its checkpointer restarted, because a dirty tenant
// must never lose its last generation.
//
//garlint:allow ctxpass -- the eviction flush must not die with whichever request triggered the eviction; its bound is EvictFlushTimeout
func (r *Registry) finishEvict(t *tenant) error {
	t.mu.Lock()
	ckptr, trainer, flog := t.ckptr, t.trainer, t.flog
	t.mu.Unlock()
	if trainer != nil {
		// Stop the trainer before the final state flush so no promotion
		// can publish after the checkpoint that is supposed to be last.
		// An in-flight cycle finishes first; pending feedback stays in
		// the WAL and trains on re-activation.
		trainer.Stop()
	}
	if ckptr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.EvictFlushTimeout)
		err := ckptr.Shutdown(ctx)
		cancel()
		if err != nil {
			ckptr.Start()
			if trainer != nil {
				trainer.Start()
			}
			r.capMu.Lock()
			t.mu.Lock()
			t.state = stateActive
			t.lastErr = fmt.Errorf("fleet: eviction aborted, state kept: %w", err)
			t.counters.EvictionsAborted++
			close(t.done)
			t.mu.Unlock()
			r.capMu.Unlock()
			r.cfg.Logf("fleet: tenant %s eviction aborted (state kept): %v", t.name, err)
			return err
		}
	}
	if flog != nil {
		if err := flog.Close(); err != nil {
			r.cfg.Logf("fleet: tenant %s: closing feedback log: %v", t.name, err)
		}
	}
	r.capMu.Lock()
	t.mu.Lock()
	sys := t.sys
	t.sys = nil
	t.ckptr = nil
	t.flog = nil
	t.trainer = nil
	t.state = stateCold
	t.counters.Evictions++
	close(t.done)
	t.mu.Unlock()
	r.active--
	r.capMu.Unlock()
	if sys != nil {
		// The state is durable (flushed above) and the snapshot is about
		// to be garbage; return its bytes to the shared budget so the
		// slot's memory is actually reusable by the incoming tenant.
		sys.ReleaseMemory()
	}
	r.cfg.Logf("fleet: tenant %s evicted", t.name)
	return nil
}

// EvictIdle evicts every active tenant that has sat idle (no pinned
// handles) for at least IdleAfter, flushing each one's checkpoint
// first, and reports how many were evicted. With IdleAfter zero, or
// ctx already done, it is a no-op. The serving layer runs it on a
// timer.
func (r *Registry) EvictIdle(ctx context.Context) int {
	if r.cfg.IdleAfter <= 0 {
		return 0
	}
	now := r.cfg.Clock()
	n := 0
	for _, t := range r.all() {
		if ctx.Err() != nil {
			return n
		}
		t.mu.Lock()
		idle := t.state == stateActive && t.refs == 0 && now.Sub(t.lastUsed) >= r.cfg.IdleAfter
		if idle {
			t.state = stateEvicting
			t.done = make(chan struct{})
		}
		t.mu.Unlock()
		if idle && r.finishEvict(t) == nil {
			n++
		}
	}
	return n
}

// Reload rebuilds the named tenant's state through the source and swaps
// it into the live system with zero downtime, returning the new
// generation. Reloads are serialized per tenant — a concurrent reload
// of the same tenant fails with ErrReloadInProgress, while different
// tenants reload in parallel.
func (r *Registry) Reload(ctx context.Context, name string) (uint64, error) {
	h, err := r.Acquire(ctx, name)
	if err != nil {
		return 0, err
	}
	defer h.Release()
	if !h.t.reloadMu.TryLock() {
		return 0, fmt.Errorf("%w: tenant %s", ErrReloadInProgress, name)
	}
	defer h.t.reloadMu.Unlock()
	if err := r.src.Reload(ctx, name, h.Sys()); err != nil {
		return 0, fmt.Errorf("fleet: reloading tenant %s: %w", name, err)
	}
	h.t.mu.Lock()
	h.t.counters.Reloads++
	h.t.mu.Unlock()
	gen := h.Sys().Generation()
	r.cfg.Logf("fleet: tenant %s reloaded (generation %d, pool %d)", name, gen, h.Sys().PoolSize())
	return gen, nil
}

// AnyReady reports whether at least one tenant currently serves a
// published snapshot — the fleet's readiness gate.
func (r *Registry) AnyReady() bool {
	for _, t := range r.all() {
		t.mu.Lock()
		ready := t.state == stateActive && t.sys != nil && t.sys.Ready()
		t.mu.Unlock()
		if ready {
			return true
		}
	}
	return false
}

// Shutdown drains and flushes the whole fleet: new Acquires fail with
// ErrClosed, every tenant's in-flight work drains, then each tenant's
// final checkpoint is flushed — all bounded by ctx and run in parallel
// across tenants. The first error is returned after every tenant
// settles; a second Shutdown is a no-op.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()

	tenants := r.all()
	errs := make(chan error, len(tenants))
	var wg sync.WaitGroup
	for _, t := range tenants {
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			errs <- r.shutdownTenant(ctx, t)
		}(t)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shutdownTenant settles any in-progress transition, drains the
// tenant's admitted requests, and flushes its final checkpoint.
func (r *Registry) shutdownTenant(ctx context.Context, t *tenant) error {
	for {
		t.mu.Lock()
		state, settling := t.state, t.done
		t.mu.Unlock()
		switch state {
		case stateActivating, stateEvicting:
			select {
			case <-ctx.Done():
				return fmt.Errorf("fleet: tenant %s: settling: %w", t.name, ctx.Err())
			case <-settling:
				continue
			}
		case stateCold:
			return nil
		}
		break // active
	}
	var firstErr error
	if err := t.ctl.Drain(ctx); err != nil {
		firstErr = fmt.Errorf("fleet: draining tenant %s: %w", t.name, err)
	}
	t.mu.Lock()
	ckptr, trainer, flog := t.ckptr, t.trainer, t.flog
	t.mu.Unlock()
	if trainer != nil {
		// No final training flush: the WAL is the source of truth and
		// the next process trains on whatever this one did not get to.
		trainer.Stop()
	}
	if flog != nil {
		defer func() {
			// The WAL's acknowledged records are already fsynced; a close
			// failure here costs nothing but is worth a log line.
			if err := flog.Close(); err != nil {
				r.cfg.Logf("fleet: tenant %s: closing feedback log: %v", t.name, err)
			}
		}()
	}
	if ckptr != nil {
		// Flush even when the drain timed out: a truncated drain must
		// not also cost the tenant its durability.
		if err := ckptr.Shutdown(ctx); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: flushing tenant %s: %w", t.name, err)
			}
		} else {
			r.cfg.Logf("fleet: tenant %s final checkpoint flushed", t.name)
		}
	}
	return firstErr
}
