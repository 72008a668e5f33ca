// The serve mode runs GAR as an HTTP JSON service over a fleet of
// per-database tenants (internal/fleet):
//
//	gar serve -spec db.json -addr :8765        # one database, tenant "default"
//	gar serve -demo                            # the built-in demo database as "default"
//	gar serve -specdir specs/ -statedir dir    # one tenant per {tenant}.json
//
// Every mode serves one route table:
//
//	POST /db/{name}/translate {"question": "who is the oldest employee"}
//	POST /db/{name}/reload
//	POST /db/{name}/feedback  (see serve_feedback.go)
//	GET  /db/{name}/healthz   the tenant's health row
//	GET  /healthz             the fleet roll-up
//	GET  /readyz              200 once at least one tenant serves a snapshot
//	POST /translate, /reload, /feedback    aliases of /db/default/...
//
// With -spec or -demo the fleet is one tenant named default. It is
// built, or warm-started from -statedir, before the server announces
// readiness, is never evicted, and keeps the flat layout: checkpoints
// in -statedir itself, the feedback WAL in {statedir}/feedback and
// spill runs in {statedir}/spill. With -specdir every {tenant}.json is
// a tenant; tenants activate on first request within a bounded LRU
// working set and keep their state in {statedir}/{tenant}/.
//
// Each request runs under a per-request timeout, the request body is
// size-limited, panics are recovered into 500 responses, and every
// error, 404 and 405 included, answers a JSON body with an "error"
// field. Every tenant has its own admission budget (overflow is shed
// with 429 + Retry-After) and re-rank circuit breaker, and a reload
// hot-swaps its pool and models with zero downtime. With -statedir a
// tenant checkpoints in the background after every state change and
// warm-starts from its newest valid checkpoint. SIGINT or SIGTERM
// drains in-flight requests, flushes every resident tenant's final
// checkpoint and exits.
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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gar"
	"repro/internal/admit"
	"repro/internal/fleet"
)

// defaultTenant names the one tenant of -spec and -demo; the legacy
// routes address it in every mode.
const defaultTenant = "default"

// serveConfig holds the per-request tunables of the HTTP handler.
type serveConfig struct {
	// Timeout bounds each translation and feedback request (the request
	// context is also honored, so a disconnecting client cancels its
	// work).
	Timeout time.Duration
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// TopK caps the candidates returned per translation.
	TopK int
}

// handler routes requests to the tenants of a fleet registry.
type handler struct {
	reg *fleet.Registry
	cfg serveConfig
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
	// Tenant names the database that answered.
	Tenant     string          `json:"tenant"`
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

// newHandler assembles the route table with the panic-recovery
// middleware outermost, so no handler bug can kill the process.
func newHandler(reg *fleet.Registry, cfg serveConfig) http.Handler {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 5
	}
	s := &handler{reg: reg, cfg: cfg}
	mux := http.NewServeMux()
	route := func(method, pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, allow(method, h))
	}
	route(http.MethodPost, "/db/{name}/translate", s.handleTranslate)
	route(http.MethodPost, "/db/{name}/reload", s.handleReload)
	route(http.MethodPost, "/db/{name}/feedback", s.handleFeedback)
	route(http.MethodGet, "/db/{name}/healthz", s.handleTenantHealthz)
	route(http.MethodGet, "/healthz", s.handleHealthz)
	route(http.MethodGet, "/readyz", s.handleReadyz)
	route(http.MethodPost, "/translate", asDefault(s.handleTranslate))
	route(http.MethodPost, "/reload", asDefault(s.handleReload))
	route(http.MethodPost, "/feedback", asDefault(s.handleFeedback))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: "no route for " + r.URL.Path})
	})
	return recoverMiddleware(mux)
}

// allow answers every method but the route's own with a JSON 405 (a
// GET route also serves HEAD).
func allow(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && (method != http.MethodGet || r.Method != http.MethodHead) {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use " + method})
			return
		}
		h(w, r)
	}
}

// asDefault serves a legacy single-database route as the same route of
// the tenant named default.
func asDefault(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.SetPathValue("name", defaultTenant)
		h(w, r)
	}
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

// writeAcquireError maps a registry acquire/reload failure onto the
// HTTP surface: unknown tenant 404, saturated working set 429 with
// Retry-After, closed registry 503, an activation still running at the
// request's deadline 503 with Retry-After (the build continues; the
// client should come back), anything else 503.
func writeAcquireError(w http.ResponseWriter, err error) {
	var sat *fleet.SaturatedError
	switch {
	case errors.Is(err, fleet.ErrUnknownTenant):
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", retryAfterSeconds(sat.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error()})
	case errors.Is(err, fleet.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant still activating: " + err.Error()})
	default:
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	}
}

func (s *handler) handleTranslate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req translateRequest
	if !decodeRequest(w, r, s.cfg.MaxBody, &req, &req.Question) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	h, err := s.reg.Acquire(ctx, name)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer h.Release()
	if !h.Sys().Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant " + name + ": no snapshot published"})
		return
	}
	// Admission: take one of this tenant's worker slots, or wait for one
	// only as long as the deadline allows. A burst here sheds here and
	// nowhere else, with 429 so a saturated tenant answers immediately
	// instead of timing everyone out.
	release, err := h.Admit(ctx)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	defer release()

	start := time.Now()
	res, err := h.Sys().TranslateContext(ctx, req.Question)
	if err != nil {
		writeTranslateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, translateJSON(res, s.cfg.TopK, start, name))
}

// reloadTimeout bounds one reload.
const reloadTimeout = 5 * time.Minute

// handleReload rebuilds the tenant's pool, models and content from its
// re-read spec off to the side and swaps them in atomically;
// translations keep serving the old snapshot throughout. A concurrent
// reload of the same tenant answers 409.
func (s *handler) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel := context.WithTimeout(r.Context(), reloadTimeout)
	defer cancel()
	start := time.Now()
	gen, err := s.reg.Reload(ctx, name)
	if err != nil {
		if errors.Is(err, fleet.ErrReloadInProgress) {
			writeJSON(w, http.StatusConflict, errorJSON{Error: err.Error()})
			return
		}
		if errors.Is(err, fleet.ErrUnknownTenant) || errors.As(err, new(*fleet.SaturatedError)) ||
			errors.Is(err, fleet.ErrClosed) {
			writeAcquireError(w, err)
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: "reload failed: " + err.Error()})
		return
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	row, err := s.reg.TenantHealth(name)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":     name,
		"generation": gen,
		"pool":       row.Pool,
		"elapsed_ms": elapsed,
	})
}

// handleTenantHealthz serves one tenant's health row: 200 while it
// serves (ok or degraded), 503 while it is cold, activating, evicting
// or unavailable.
func (s *handler) handleTenantHealthz(w http.ResponseWriter, r *http.Request) {
	th, err := s.reg.TenantHealth(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if th.Status != "ok" && th.Status != "degraded" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, th)
}

// handleHealthz serves the fleet roll-up: 503 while no tenant serves.
func (s *handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.reg.Health()
	status := http.StatusOK
	if h.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleReadyz gates readiness on the first published snapshot: 503
// until at least one tenant serves.
func (s *handler) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.reg.AnyReady() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"reason": "no tenant has a published snapshot",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// decodeRequest reads a size-limited JSON request body into v and
// requires a non-blank *question, writing the 400 or 413 response
// itself when the body is unusable.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBody int64, v any, question *string) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorJSON{Error: "bad request body: " + err.Error()})
		return false
	}
	if strings.TrimSpace(*question) == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty question"})
		return false
	}
	return true
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

// specSource is the fleet.Source of every serve mode. It loads a
// tenant's spec from {dir}/{tenant}.json under -specdir, or from -spec
// or -demo for the one tenant of those modes, and builds, deploys and
// reloads it the same way in each: with the ranking models of
// loadModels when that is set (train once, deploy on unseen
// databases), trained on the spec's examples otherwise. The registry
// calls it concurrently for different tenants.
type specSource struct {
	dir        string // -specdir; empty for -spec and -demo
	file       string // -spec
	demo       bool   // -demo
	opts       gar.Options
	loadModels string // -loadmodels
}

func (s *specSource) load(name string) (*spec, error) {
	if s.dir != "" {
		return loadSpec(filepath.Join(s.dir, name+".json"), false)
	}
	return loadSpec(s.file, s.demo)
}

// Cold assembles the schema-bound shell the registry warm-starts or
// deploys into.
func (s *specSource) Cold(name string) (*gar.System, error) {
	sp, err := s.load(name)
	if err != nil {
		return nil, err
	}
	sys, _, err := newSystem(sp, s.opts)
	return sys, err
}

// Deploy cold-builds the tenant from its spec: prepare the pool and
// train or load the models. A schema-only spec deploys nothing; the
// tenant serves 503 until a reload provides samples.
func (s *specSource) Deploy(ctx context.Context, name string, sys *gar.System) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sp, err := s.load(name)
	if err != nil {
		return false, err
	}
	if len(sp.Samples) == 0 {
		return false, nil
	}
	if _, err := deploySystem(sys, sp, s.opts, s.loadModels); err != nil {
		return false, err
	}
	return true, nil
}

// Reload re-reads the tenant's spec, rebuilds pool/models/content off
// to the side, and swaps them into the live system atomically.
func (s *specSource) Reload(ctx context.Context, name string, sys *gar.System) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp, err := s.load(name)
	if err != nil {
		return err
	}
	content, models, err := reloadModels(sp, s.opts, s.loadModels)
	if err != nil {
		return err
	}
	if content != nil {
		sys.SetContent(content)
	}
	_, err = sys.Swap(sp.Samples, models)
	return err
}

// FeedbackBase loads the tenant's committed corpus for the online
// trainer; implementing fleet.FeedbackSource opts the fleet into the
// feedback loop.
func (s *specSource) FeedbackBase(name string) (gar.BaseData, error) {
	sp, err := s.load(name)
	if err != nil {
		return gar.BaseData{}, err
	}
	return specBase(sp), nil
}

// ExecGuided reports -execguide to the health rows
// (fleet.ExecGuideSource).
func (s *specSource) ExecGuided() bool { return s.opts.ExecGuide }

// tenantNames lists the tenants of a spec directory: the stem of every
// *.json file.
func tenantNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

// openRegistry builds the fleet `gar serve` serves. Under -specdir it
// registers one cold tenant per spec. Otherwise it registers the one
// tenant default — resident, never idle-evicted, in the flat state
// layout — and activates it before returning, so a spec that cannot be
// loaded or built fails startup instead of the first request.
func openRegistry(src *specSource, cfg fleet.Config) (*fleet.Registry, error) {
	names := []string{defaultTenant}
	if src.dir != "" {
		var err error
		if names, err = tenantNames(src.dir); err != nil {
			return nil, err
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("gar serve: no tenant specs (*.json) in %s", src.dir)
		}
	} else {
		cfg.MaxActive, cfg.IdleAfter, cfg.FlatState = 1, 0, true
		cfg.TenantInFlight, cfg.TenantQueue, cfg.TenantMemLimit = 0, 0, 0
	}
	reg := fleet.New(src, cfg)
	for _, name := range names {
		if err := reg.Register(name); err != nil {
			return nil, err
		}
	}
	if src.dir == "" {
		h, err := reg.Acquire(context.Background(), defaultTenant)
		if err != nil {
			// Nothing is resident to flush; this removes a spill root.
			return nil, errors.Join(err, reg.Shutdown(context.Background()))
		}
		h.Release()
	}
	return reg, nil
}

// runServe is the `gar serve` entry point.
func runServe(args []string) {
	fs := flag.NewFlagSet("gar serve", flag.ExitOnError)
	addr := fs.String("addr", ":8765", "listen address")
	specPath := fs.String("spec", "", "path to the JSON database spec (served as tenant default)")
	demo := fs.Bool("demo", false, "serve the built-in employee demo database as tenant default")
	garJ := fs.Bool("j", false, "enable GAR-J (use join annotations)")
	pool := fs.Int("pool", 2000, "generalized candidate pool size")
	loadModels := fs.String("loadmodels", "", "load ranking models for every tenant instead of training")
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
	keepCkpt := fs.Int("keepckpt", 3, "checkpoint generations retained per tenant")
	specDir := fs.String("specdir", "", "directory of per-tenant JSON database specs ({tenant}.json): serve a multi-tenant fleet")
	maxTenants := fs.Int("maxtenants", 8, "-specdir only: tenants resident in memory at once (LRU eviction beyond)")
	tenantIdle := fs.Duration("tenantidle", 15*time.Minute, "-specdir only: evict tenants idle this long (0 disables)")
	tenantInFlight := fs.Int("tenantinflight", 0, "-specdir only: per-tenant concurrent translations (0 = maxinflight/maxtenants)")
	tenantQueue := fs.Int("tenantqueue", 0, "-specdir only: per-tenant queue depth (0 = maxqueue/maxtenants)")
	memLimit := fs.Int64("memlimit", 0, "serving-state memory budget in bytes: pool, embeddings and caches spill or degrade instead of growing past it (0 = unbounded)")
	tenantMemLimit := fs.Int64("tenantmemlimit", 0, "-specdir only: per-tenant share of -memlimit in bytes (0 = memlimit/maxtenants)")
	feedbackOn := fs.Bool("feedback", false, "accept POST /feedback into a durable WAL and retrain in the background (requires -statedir)")
	shadowThreshold := fs.Float64("shadowthreshold", 0, "how much worse (shadow top-1 exact match) a retrained candidate may score and still be promoted")
	trainInterval := fs.Duration("traininterval", 30*time.Second, "quiet window after feedback arrives before a background retrain starts")
	trainBudget := fs.Int("trainbudget", 1, "-specdir only: tenants allowed to retrain concurrently")
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
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
	}
	src := &specSource{dir: *specDir, file: *specPath, demo: *demo, opts: opts, loadModels: *loadModels}
	reg, err := openRegistry(src, fleet.Config{
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
		Logf:            logf,
	})
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(reg, serveConfig{Timeout: *timeout, MaxBody: *maxBody, TopK: *topK}),
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
	ready := fmt.Sprintf("fleet of %d tenants", len(reg.Names()))
	if src.dir == "" {
		row, err := reg.TenantHealth(defaultTenant)
		if err != nil {
			fatal(err)
		}
		ready = fmt.Sprintf("%d candidate queries", row.Pool)
	}
	logf("%s ready on %s", ready, ln.Addr())

	// Idle reaper: periodically evict tenants idle past -tenantidle,
	// each flushed before its snapshot is dropped.
	if idle := *tenantIdle; src.dir != "" && idle > 0 {
		go func() {
			tick := time.NewTicker(max(idle/4, time.Second))
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n := reg.EvictIdle(ctx); n > 0 {
						logf("idle reaper evicted %d tenant(s)", n)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	logf("draining connections")
	// One window bounds the whole sequence: drain in-flight requests,
	// then flush every resident tenant's final checkpoint.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if err := reg.Shutdown(shutdownCtx); err != nil {
		logf("fleet shutdown: %v", err)
	} else {
		logf("fleet flushed and stopped")
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
