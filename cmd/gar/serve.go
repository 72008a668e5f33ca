// The serve mode runs GAR as a small HTTP JSON service:
//
//	gar serve -spec db.json -addr :8765
//	gar serve -demo
//
//	POST /translate {"question": "who is the oldest employee"}
//	POST /reload
//	GET  /healthz
//	GET  /readyz
//
// Each request runs under a per-request timeout, the request body is
// size-limited, panics are recovered into 500 responses, and SIGINT or
// SIGTERM drains in-flight requests before exiting.
//
// The service is overload-protected: an admission controller bounds
// how many translations run concurrently, queues a bounded overflow
// with a deadline-aware wait (a request that would miss its deadline
// in the queue is shed immediately), and answers sheds with 429 +
// Retry-After. A circuit breaker trips the re-ranking stage into
// retrieval-only degraded mode after repeated stage failures, and
// POST /reload hot-swaps the candidate pool and models from the spec
// with zero downtime (old snapshot serves until the atomic swap).
//
// With -statedir the serving state is durable: the server warm-starts
// from the newest valid checkpoint (skipping Prepare and Train
// entirely), checkpoints in the background after every state change,
// flushes a final checkpoint on graceful shutdown, and prunes old
// generations down to -keepckpt. /healthz reports the last checkpoint
// generation and age.
//
// With -specdir the same process serves a multi-tenant fleet — one
// isolated System per {tenant}.json spec, routed by path
// (POST /db/{name}/translate) with a bounded LRU working set,
// per-tenant admission budgets and breakers, and per-tenant state
// under -statedir/{tenant}/. See serve_fleet.go.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/gar"
	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/checkpoint"
	"repro/internal/feedback"
	"repro/internal/fleet"
	"repro/internal/spill"
)

// serveConfig holds the tunables of the HTTP service.
type serveConfig struct {
	// Timeout bounds each translation (the request context is also
	// honored, so a disconnecting client cancels its work).
	Timeout time.Duration
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// TopK caps the candidates returned per translation.
	TopK int

	// MaxInFlight bounds concurrent translations; MaxQueue bounds how
	// many more may wait for a slot before new arrivals are shed with
	// 429. RetryAfter is the back-off hint attached to sheds.
	MaxInFlight int
	MaxQueue    int
	RetryAfter  time.Duration

	// BreakerFailures consecutive re-rank failures trip the breaker
	// into retrieval-only mode for BreakerCooldown; NoBreaker disables
	// it.
	BreakerFailures int
	BreakerCooldown time.Duration
	NoBreaker       bool

	// Reload rebuilds the system state (pool, models, content) and
	// swaps it in; wired by runServe to re-read the spec. nil disables
	// POST /reload.
	Reload func(ctx context.Context) error
	// ReloadTimeout bounds one reload (default 5m).
	ReloadTimeout time.Duration

	// Ckpt, when set, is the background checkpointer persisting the
	// serving state; /healthz reports its last generation, age and
	// counters. nil when -statedir is not given.
	Ckpt *gar.Checkpointer

	// Feedback, when set, enables POST /feedback: the durable WAL, the
	// background trainer and the accept/reject tallies. nil when
	// -feedback is not given.
	Feedback *feedbackState

	// ExecGuide mirrors the system's execution-guided reranking switch;
	// /healthz reports the stage's counters when it is on.
	ExecGuide bool
}

type server struct {
	sys *gar.System
	cfg serveConfig
	ctl *admit.Controller
	br  *breaker.Breaker

	// reloadMu serializes POST /reload; a second concurrent reload is
	// answered 409 instead of queueing behind the first.
	reloadMu sync.Mutex
}

type translateRequest struct {
	Question string `json:"question"`
}

type candidateJSON struct {
	SQL     string  `json:"sql"`
	Dialect string  `json:"dialect"`
	Score   float64 `json:"score"`
}

type translateResponse struct {
	// Tenant names the database that answered; set in fleet mode only.
	Tenant     string          `json:"tenant,omitempty"`
	SQL        string          `json:"sql"`
	Dialect    string          `json:"dialect"`
	Degraded   bool            `json:"degraded,omitempty"`
	Warnings   []string        `json:"warnings,omitempty"`
	Candidates []candidateJSON `json:"candidates"`
	Generation uint64          `json:"generation"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// newServeHandler assembles the routed handler with the panic-recovery
// middleware outermost, so no handler bug can kill the process.
func newServeHandler(sys *gar.System, cfg serveConfig) http.Handler {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 5
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.ReloadTimeout <= 0 {
		cfg.ReloadTimeout = 5 * time.Minute
	}
	s := &server{
		sys: sys,
		cfg: cfg,
		ctl: admit.New(admit.Config{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
			RetryAfter:  cfg.RetryAfter,
		}),
	}
	if !cfg.NoBreaker {
		s.br = breaker.New(breaker.Config{
			FailureThreshold: cfg.BreakerFailures,
			Cooldown:         cfg.BreakerCooldown,
		})
		sys.SetRerankBreaker(s.br)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/translate", s.handleTranslate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/reload", s.handleReload)
	mux.HandleFunc("/feedback", s.handleFeedback)
	return recoverMiddleware(mux)
}

// recoverMiddleware converts handler panics into JSON 500 responses.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeJSON(w, http.StatusInternalServerError,
					errorJSON{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// breakerJSON reports the re-rank breaker for health endpoints; the
// snapshot's own MarshalJSON renders the wire shape.
func (s *server) breakerJSON() any {
	if s.br == nil {
		return map[string]any{"state": "disabled"}
	}
	return s.br.Snapshot()
}

// handleHealthz reports live service health: pool and generation,
// breaker position, and admission occupancy. While no translatable
// snapshot is published (startup, or a bare re-Prepare) it answers
// 503 so load balancers stop routing here.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use GET"})
		return
	}
	st := s.ctl.Stats()
	cs := s.sys.CacheStats()
	body := map[string]any{
		"pool":       s.sys.PoolSize(),
		"generation": s.sys.Generation(),
		"breaker":    s.breakerJSON(),
		"caches": map[string]any{
			"embeddings":   cs.Embeddings,
			"translations": cs.Translations,
		},
		"admission": map[string]any{
			"in_flight":       st.InFlight,
			"queued":          st.Queued,
			"peak_in_flight":  st.PeakInFlight,
			"max_in_flight":   s.ctl.MaxInFlight(),
			"admitted":        st.Admitted,
			"shed_queue_full": st.ShedQueueFull,
			"shed_deadline":   st.ShedDeadline,
		},
	}
	if s.cfg.Ckpt != nil {
		cs := s.cfg.Ckpt.Stats()
		ck := map[string]any{
			"last_generation": cs.LastGeneration,
			"writes":          cs.Writes,
			"failures":        cs.Failures,
			"pruned":          cs.Pruned,
			"pending":         cs.Pending,
		}
		if cs.LastUnix > 0 {
			ck["age_seconds"] = time.Now().Unix() - cs.LastUnix
		}
		if cs.LastError != "" {
			ck["last_error"] = cs.LastError
		}
		body["checkpoint"] = ck
	}
	if s.cfg.Feedback != nil {
		body["feedback"] = s.cfg.Feedback.healthJSON()
	}
	if s.cfg.ExecGuide {
		es := s.sys.ExecGuideStats()
		body["execguide"] = map[string]any{
			"enabled":  true,
			"executed": es.Executed,
			"demoted":  es.Demoted,
			"errors":   es.Errors,
			"timeouts": es.Timeouts,
		}
	}
	if ms := s.sys.MemStats(); ms.Budget != nil {
		// Resource governance: live budget usage, the published
		// snapshot's footprint, spill gauges, and the degradation record.
		body["memory"] = ms
	}
	if !s.sys.Ready() {
		body["status"] = "unavailable"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	status := "ok"
	if s.br != nil && s.br.State() != breaker.Closed {
		// Serving, but re-ranking is tripped: retrieval-only answers.
		status = "degraded"
	}
	body["status"] = status
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is the readiness probe, distinct from /healthz: it
// answers 200 exactly when a complete translatable snapshot is
// published, and reports the breaker position so orchestrators can
// see a degraded-but-serving instance.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use GET"})
		return
	}
	if !s.sys.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":   false,
			"reason":  "no snapshot published",
			"breaker": s.breakerJSON(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":      true,
		"generation": s.sys.Generation(),
		"breaker":    s.breakerJSON(),
	})
}

// handleReload rebuilds pool, models and content from the (re-read)
// spec off to the side and atomically swaps them in; translations keep
// serving the old snapshot throughout. Reloads are serialized: a
// concurrent reload answers 409.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use POST"})
		return
	}
	if s.cfg.Reload == nil {
		writeJSON(w, http.StatusNotImplemented, errorJSON{Error: "reload not configured"})
		return
	}
	if !s.reloadMu.TryLock() {
		writeJSON(w, http.StatusConflict, errorJSON{Error: "reload already in progress"})
		return
	}
	defer s.reloadMu.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
	defer cancel()
	start := time.Now()
	if err := s.cfg.Reload(ctx); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: "reload failed: " + err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": s.sys.Generation(),
		"pool":       s.sys.PoolSize(),
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use POST"})
		return
	}
	if !s.sys.Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "no snapshot published"})
		return
	}
	req, ok := decodeTranslate(w, r, s.cfg.MaxBody)
	if !ok {
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	// Admission: take a worker slot, or wait for one only as long as
	// the deadline allows. Shed requests fail fast with 429 so a
	// saturated server answers immediately instead of timing everyone
	// out.
	release, err := s.ctl.Acquire(ctx)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	defer release()

	start := time.Now()
	res, err := s.sys.TranslateContext(ctx, req.Question)
	if err != nil {
		writeTranslateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, translateJSON(res, s.cfg.TopK, start, ""))
}

// decodeTranslate reads and validates a translate request body, writing
// the error response itself when the body is unusable.
func decodeTranslate(w http.ResponseWriter, r *http.Request, maxBody int64) (translateRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req translateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorJSON{Error: "bad request body: " + err.Error()})
		return req, false
	}
	if strings.TrimSpace(req.Question) == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty question"})
		return req, false
	}
	return req, true
}

// writeAdmitError maps an admission failure: sheds answer 429 with a
// Retry-After hint; a context that ended while queued (client gone or
// deadline hit) answers 504.
func writeAdmitError(w http.ResponseWriter, err error) {
	if shed, ok := admit.AsShed(err); ok {
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: err.Error()})
}

// writeTranslateError maps a pipeline failure; deadline and
// cancellation (the client went away — 499-style handling keeps logs
// honest) map to 504.
func writeTranslateError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// translateJSON renders a pipeline result, capping candidates at topK.
func translateJSON(res *gar.Result, topK int, start time.Time, tenant string) translateResponse {
	out := translateResponse{
		Tenant:     tenant,
		SQL:        res.SQL,
		Dialect:    res.Dialect,
		Degraded:   res.Degraded,
		Warnings:   res.Warnings,
		Generation: res.Generation,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, c := range res.Candidates {
		if i >= topK {
			break
		}
		out.Candidates = append(out.Candidates, candidateJSON{SQL: c.SQL, Dialect: c.Dialect, Score: c.Score})
	}
	return out
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

//garlint:allow errlost -- a response-encode failure means the client hung up; there is no one left to tell
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// buildServingSystem assembles the system runServe serves. Durable
// state: with a state directory the newest valid checkpoint brings the
// complete serving snapshot back in seconds — no Prepare, no Train.
// Recovery falls back generation-by-generation past corrupt or
// incompatible files; only when nothing valid exists does the server
// cold-build from the spec (or, with a schema-only spec, start on a
// clean empty state answering 503 until a reload). Without a state
// directory it cold-builds directly and returns a nil store.
func buildServingSystem(stateDir string, s *spec, opts gar.Options, loadModels string,
	logf func(format string, args ...any)) (*gar.System, *checkpoint.Store, bool, error) {
	if stateDir == "" {
		sys, _, err := buildSystem(s, opts, loadModels)
		return sys, nil, false, err
	}
	ckStore, err := checkpoint.Open(stateDir)
	if err != nil {
		return nil, nil, false, err
	}
	if removed, err := ckStore.CleanTemp(); err != nil {
		logf("%v", err)
	} else if len(removed) > 0 {
		logf("removed %d abandoned temp file(s) from %s", len(removed), stateDir)
	}
	sys, _, err := newSystem(s, opts)
	if err != nil {
		return nil, nil, false, err
	}
	ck, skipped, err := sys.RecoverCheckpoint(ckStore)
	if err != nil {
		return nil, nil, false, err
	}
	for _, sk := range skipped {
		logf("skipping checkpoint %s: %v", sk.Path, sk.Err)
	}
	switch {
	case ck != nil:
		logf("warm start from checkpoint generation %d (%d candidates)",
			ck.Manifest.Generation, sys.PoolSize())
		return sys, ckStore, true, nil
	case len(s.Samples) > 0:
		logf("no recoverable checkpoint; cold-building from spec")
		if _, err := deploySystem(sys, s, opts, loadModels); err != nil {
			return nil, nil, false, err
		}
		return sys, ckStore, false, nil
	default:
		logf("no recoverable checkpoint and no sample queries; serving 503 until a reload provides state")
		return sys, ckStore, false, nil
	}
}

// runServe is the `gar serve` entry point.
func runServe(args []string) {
	fs := flag.NewFlagSet("gar serve", flag.ExitOnError)
	addr := fs.String("addr", ":8765", "listen address")
	specPath := fs.String("spec", "", "path to the JSON database spec")
	demo := fs.Bool("demo", false, "use the built-in employee demo database")
	garJ := fs.Bool("j", false, "enable GAR-J (use join annotations)")
	pool := fs.Int("pool", 2000, "generalized candidate pool size")
	loadModels := fs.String("loadmodels", "", "load ranking models instead of training")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request translation timeout")
	maxBody := fs.Int64("maxbody", 1<<20, "maximum request body size in bytes")
	topK := fs.Int("top", 5, "number of candidates returned per translation")
	maxInFlight := fs.Int("maxinflight", 8, "maximum concurrent translations")
	maxQueue := fs.Int("maxqueue", 16, "maximum queued translations before shedding")
	retryAfter := fs.Duration("retryafter", time.Second, "Retry-After hint on shed (429) responses")
	breakerFailures := fs.Int("breakfailures", 5, "consecutive re-rank failures that trip the circuit breaker")
	breakerCooldown := fs.Duration("breakcooldown", 2*time.Second, "how long a tripped breaker stays open before probing")
	noBreaker := fs.Bool("nobreaker", false, "disable the re-rank circuit breaker")
	noStageBudget := fs.Bool("nostagebudget", false, "disable per-stage deadline budgets")
	execGuide := fs.Bool("execguide", false, "execution-guided reranking: execute top candidates on a seeded sample instance and demote failures")
	execBudget := fs.Duration("execbudget", 25*time.Millisecond, "per-candidate execution budget under -execguide")
	workers := fs.Int("workers", 0, "parallel fan-out of encoding and re-rank scoring (0 = one per CPU)")
	cacheSize := fs.Int("cachesize", 1024, "entries per translation cache (embeddings, results)")
	noCache := fs.Bool("nocache", false, "disable the translation-path caches")
	stateDir := fs.String("statedir", "", "durable serving-state directory: warm-start from the newest valid checkpoint and checkpoint after every state change")
	keepCkpt := fs.Int("keepckpt", 3, "checkpoint generations retained in -statedir")
	specDir := fs.String("specdir", "", "directory of per-tenant JSON database specs ({tenant}.json): serve a multi-tenant fleet")
	maxTenants := fs.Int("maxtenants", 8, "fleet mode: tenants resident in memory at once (LRU eviction beyond)")
	tenantIdle := fs.Duration("tenantidle", 15*time.Minute, "fleet mode: evict tenants idle this long (0 disables)")
	tenantInFlight := fs.Int("tenantinflight", 0, "fleet mode: per-tenant concurrent translations (0 = maxinflight/maxtenants)")
	tenantQueue := fs.Int("tenantqueue", 0, "fleet mode: per-tenant queue depth (0 = maxqueue/maxtenants)")
	memLimit := fs.Int64("memlimit", 0, "serving-state memory budget in bytes: pool, embeddings and caches spill or degrade instead of growing past it (0 = unbounded)")
	tenantMemLimit := fs.Int64("tenantmemlimit", 0, "fleet mode: per-tenant share of -memlimit in bytes (0 = memlimit/maxtenants)")
	feedbackOn := fs.Bool("feedback", false, "accept POST /feedback into a durable WAL and retrain in the background (requires -statedir)")
	shadowThreshold := fs.Float64("shadowthreshold", 0, "how much worse (shadow top-1 exact match) a retrained candidate may score and still be promoted")
	trainInterval := fs.Duration("traininterval", 30*time.Second, "quiet window after feedback arrives before a background retrain starts")
	trainBudget := fs.Int("trainbudget", 1, "fleet mode: tenants allowed to retrain concurrently")
	if err := fs.Parse(args); err != nil {
		// Unreachable with ExitOnError, but the error stays handled if
		// the flag set's policy ever changes.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := gar.Options{
		GeneralizeSize:  *pool,
		JoinAnnotations: *garJ,
		Seed:            1,
		EncoderEpochs:   14,
		RerankEpochs:    40,
		Workers:         *workers,
		CacheSize:       *cacheSize,
		NoCache:         *noCache,
		ExecGuide:       *execGuide,
		ExecBudget:      *execBudget,
	}
	if !*noStageBudget {
		// Each stage gets a slice of the remaining deadline so a slow
		// re-rank degrades early instead of starving post-processing.
		opts.StageBudget = gar.StageBudget{Retrieval: 0.5, Rerank: 0.6, Postprocess: 0.7, ExecGuide: 0.9}
	}

	if *feedbackOn && *stateDir == "" {
		fatal(fmt.Errorf("gar serve: -feedback requires -statedir (the WAL lives in the state directory)"))
	}
	if *memLimit != 0 && *memLimit < minMemLimit {
		fatal(fmt.Errorf("gar serve: -memlimit %d bytes is below the %d-byte (1 MiB) floor: a budget that small cannot hold even a minimal serving snapshot; raise it or pass 0 for unbounded", *memLimit, minMemLimit))
	}

	if *specDir != "" {
		if *specPath != "" || *demo {
			fatal(fmt.Errorf("gar serve: -specdir is exclusive with -spec and -demo"))
		}
		if *memLimit > 0 {
			// The fleet splits the process budget across resident
			// tenants; a share below the floor would start every tenant
			// degraded-by-construction.
			share := *tenantMemLimit
			if share <= 0 {
				share = *memLimit / int64(max(*maxTenants, 1))
			}
			if share < minMemLimit {
				fatal(fmt.Errorf("gar serve: the per-tenant memory share (%d bytes) is below the %d-byte (1 MiB) floor; raise -memlimit or -tenantmemlimit, or lower -maxtenants", share, minMemLimit))
			}
		}
		runServeFleet(fleetServeParams{
			Addr:    *addr,
			SpecDir: *specDir,
			Opts:    opts,
			Cfg: serveConfig{
				Timeout:   *timeout,
				MaxBody:   *maxBody,
				TopK:      *topK,
				ExecGuide: *execGuide,
			},
			Fleet: fleet.Config{
				MaxActive:       *maxTenants,
				IdleAfter:       *tenantIdle,
				MaxInFlight:     *maxInFlight,
				MaxQueue:        *maxQueue,
				TenantInFlight:  *tenantInFlight,
				TenantQueue:     *tenantQueue,
				RetryAfter:      *retryAfter,
				BreakerFailures: *breakerFailures,
				BreakerCooldown: *breakerCooldown,
				NoBreaker:       *noBreaker,
				StateDir:        *stateDir,
				Keep:            *keepCkpt,
				Feedback:        *feedbackOn,
				TrainInterval:   *trainInterval,
				ShadowThreshold: *shadowThreshold,
				TrainBudget:     *trainBudget,
				MemLimit:        *memLimit,
				TenantMemLimit:  *tenantMemLimit,
			},
		})
		return
	}

	if *memLimit > 0 {
		opts.MemBudget = *memLimit
		// Spill lives beside the durable state when there is any, in a
		// private temp directory otherwise. Runs are per-build scratch:
		// anything present at startup was orphaned by a previous
		// process, so sweep before the first build can write.
		spillDir := ""
		if *stateDir != "" {
			spillDir = filepath.Join(*stateDir, "spill")
		} else if d, err := os.MkdirTemp("", "gar-spill-"); err != nil {
			fatal(fmt.Errorf("gar serve: creating spill directory: %w", err))
		} else {
			spillDir = d
			defer os.RemoveAll(d)
		}
		if removed, err := spill.Sweep(spillDir); err != nil {
			fmt.Fprintf(os.Stderr, "gar serve: sweeping spill directory: %v\n", err)
		} else if len(removed) > 0 {
			fmt.Fprintf(os.Stderr, "gar serve: removed %d orphaned spill file(s) from %s\n", len(removed), spillDir)
		}
		opts.SpillDir = spillDir
	}

	s, err := loadSpec(*specPath, *demo)
	if err != nil {
		fatal(err)
	}

	sys, ckStore, warm, err := buildServingSystem(*stateDir, s, opts, *loadModels,
		func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
		})
	if err != nil {
		fatal(err)
	}

	// Background checkpointer: every published state change (cold
	// build, reload swap, retrain) schedules a durable checkpoint;
	// bursts coalesce and failed writes retry with jittered backoff.
	var ckptr *gar.Checkpointer
	if ckStore != nil {
		ckptr = sys.NewCheckpointer(ckStore, gar.CheckpointerConfig{
			Keep: *keepCkpt,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
			},
		})
		ckptr.Start()
		if sys.Ready() && !warm {
			// Persist the freshly cold-built state now, so a crash
			// before the first reload already has something to recover.
			ckptr.Notify()
		}
	}

	// Online feedback loop: a durable WAL inside the state directory
	// plus a background trainer that folds accepted feedback into the
	// spec's corpus, retrains off the serving path, and promotes only
	// through the shadow gate (with checkpoint-backed rollback).
	var fb *feedbackState
	if *feedbackOn {
		flog, err := feedback.Open(filepath.Join(*stateDir, "feedback"), feedback.Config{})
		if err != nil {
			fatal(err)
		}
		base := func() (gar.BaseData, error) {
			fresh, err := loadSpec(*specPath, *demo)
			if err != nil {
				return gar.BaseData{}, err
			}
			return specBase(fresh), nil
		}
		trainer := sys.NewTrainer(flog, ckStore, base, gar.TrainerConfig{
			Interval:        *trainInterval,
			ShadowThreshold: *shadowThreshold,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
			},
		})
		trainer.Start()
		if flog.LastSeq() > 0 {
			// Feedback recorded before the last shutdown may not have
			// been trained on yet; wake the trainer to fold it in.
			trainer.Notify()
		}
		fb = &feedbackState{log: flog, trainer: trainer}
	}

	// Reload re-reads the spec (and model file, if any), rebuilds a
	// complete new state off to the side, and publishes it with one
	// atomic snapshot swap — in-flight and new translations keep
	// hitting the old snapshot until the swap.
	reload := func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		fresh, err := loadSpec(*specPath, *demo)
		if err != nil {
			return err
		}
		content, models, err := reloadModels(fresh, opts, *loadModels)
		if err != nil {
			return err
		}
		if content != nil {
			sys.SetContent(content)
		}
		gen, err := sys.Swap(fresh.Samples, models)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "gar serve: reloaded, generation %d, %d candidates\n", gen, sys.PoolSize())
		return nil
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: newServeHandler(sys, serveConfig{
			Timeout:         *timeout,
			MaxBody:         *maxBody,
			TopK:            *topK,
			MaxInFlight:     *maxInFlight,
			MaxQueue:        *maxQueue,
			RetryAfter:      *retryAfter,
			BreakerFailures: *breakerFailures,
			BreakerCooldown: *breakerCooldown,
			NoBreaker:       *noBreaker,
			Reload:          reload,
			Ckpt:            ckptr,
			Feedback:        fb,
			ExecGuide:       *execGuide,
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Listen before announcing readiness so the logged address is the
	// bound one (":0" resolves to a real port — the restart tests rely
	// on reading it back).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Install the handler before announcing readiness: a supervisor may
	// signal the moment it reads the line, and that signal must drain
	// and flush, not kill.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "gar serve: %d candidate queries ready on %s\n", sys.PoolSize(), ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "gar serve: draining connections")
	// One shutdown window covers the whole sequence — drain in-flight
	// requests, then flush the final checkpoint — so a slow drain
	// cannot silently double the time to exit.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if fb != nil {
		// Stop the trainer before the final checkpoint flush so no
		// promotion publishes after the state that is supposed to be
		// last. Pending feedback is already fsynced in the WAL; the next
		// process trains on it.
		fb.trainer.Stop()
	}
	if ckptr != nil {
		// Final flush: no more mutations can arrive, so stop the
		// background writer and persist the last published state
		// synchronously — the restart warm-starts from exactly what
		// this process was serving.
		if err := ckptr.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "gar serve: final checkpoint flush failed: %v\n", err)
		} else if st := ckptr.Stats(); st.Writes > 0 {
			fmt.Fprintf(os.Stderr, "gar serve: final checkpoint flushed (generation %d)\n", st.LastGeneration)
		}
	}
	if fb != nil {
		if err := fb.log.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "gar serve: closing feedback log: %v\n", err)
		}
	}
}

// shutdownTimeout bounds the whole graceful-shutdown sequence: the
// request drain and the final checkpoint flushes share it.
const shutdownTimeout = 10 * time.Second

// minMemLimit is the smallest admissible -memlimit (1 MiB). Below it
// not even a minimal snapshot — schema bindings, a handful of
// candidates and their embeddings — fits, so the server would start
// degraded by construction; that configuration is rejected up front.
const minMemLimit = 1 << 20
