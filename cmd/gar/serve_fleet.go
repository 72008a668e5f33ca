// Fleet mode: `gar serve -specdir specs/` serves many databases from
// one process. Every {tenant}.json in the spec directory is a tenant;
// requests route by name:
//
//	POST /db/{name}/translate {"question": "..."}
//	POST /db/{name}/reload
//	GET  /db/{name}/healthz
//	GET  /healthz   fleet-wide roll-up
//	GET  /readyz    200 once at least one tenant serves a snapshot
//
// The registry (internal/fleet) keeps a bounded LRU working set of
// resident tenants: cold tenants activate on first request —
// warm-started from -statedir/{tenant}/ when a checkpoint exists —
// and idle ones are evicted after a synchronous checkpoint flush.
// Every tenant has its own admission budget and re-rank breaker, so
// one saturated or failing database sheds or degrades alone.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/gar"
	"repro/internal/fleet"
)

// specDirSource builds tenant systems from {dir}/{tenant}.json specs.
// It implements fleet.Source; the registry calls it concurrently for
// different tenants.
type specDirSource struct {
	dir  string
	opts gar.Options
}

func (s *specDirSource) load(name string) (*spec, error) {
	return loadSpec(filepath.Join(s.dir, name+".json"), false)
}

// Cold assembles the schema-bound shell the registry warm-starts or
// deploys into.
func (s *specDirSource) Cold(name string) (*gar.System, error) {
	sp, err := s.load(name)
	if err != nil {
		return nil, err
	}
	sys, _, err := newSystem(sp, s.opts)
	return sys, err
}

// Deploy cold-builds the tenant from its spec: prepare the pool and
// train (or no-op for a schema-only spec, which serves 503 until a
// reload provides samples).
func (s *specDirSource) Deploy(ctx context.Context, name string, sys *gar.System) (bool, error) {
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
	if _, err := deploySystem(sys, sp, s.opts, ""); err != nil {
		return false, err
	}
	return true, nil
}

// Reload re-reads the tenant's spec, rebuilds pool/models/content off
// to the side, and swaps them into the live system atomically.
func (s *specDirSource) Reload(ctx context.Context, name string, sys *gar.System) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp, err := s.load(name)
	if err != nil {
		return err
	}
	content, models, err := reloadModels(sp, s.opts, "")
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
func (s *specDirSource) FeedbackBase(name string) (gar.BaseData, error) {
	sp, err := s.load(name)
	if err != nil {
		return gar.BaseData{}, err
	}
	return specBase(sp), nil
}

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

// fleetServer routes per-database requests to the tenant registry.
type fleetServer struct {
	reg *fleet.Registry
	cfg serveConfig
}

// newFleetHandler assembles the fleet router with the panic-recovery
// middleware outermost, mirroring the single-tenant handler.
func newFleetHandler(reg *fleet.Registry, cfg serveConfig) http.Handler {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 5
	}
	if cfg.ReloadTimeout <= 0 {
		cfg.ReloadTimeout = 5 * time.Minute
	}
	s := &fleetServer{reg: reg, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /db/{name}/translate", s.handleTranslate)
	mux.HandleFunc("POST /db/{name}/reload", s.handleReload)
	mux.HandleFunc("POST /db/{name}/feedback", s.handleFeedback)
	mux.HandleFunc("GET /db/{name}/healthz", s.handleTenantHealthz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return recoverMiddleware(mux)
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

func (s *fleetServer) handleTranslate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, ok := decodeTranslate(w, r, s.cfg.MaxBody)
	if !ok {
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
	// Per-tenant admission: this tenant's budget, not the fleet's — a
	// burst here sheds here and nowhere else.
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

func (s *fleetServer) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
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
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant":     name,
		"generation": gen,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *fleetServer) handleTenantHealthz(w http.ResponseWriter, r *http.Request) {
	th, err := s.reg.TenantHealth(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if th.Status != "ok" && th.Status != "degraded" {
		// Cold, activating, evicting or unavailable: not serving now.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, th)
}

func (s *fleetServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.reg.Health()
	status := http.StatusOK
	if h.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleReadyz gates fleet readiness on the first published snapshot:
// 503 until at least one tenant serves.
func (s *fleetServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.reg.AnyReady() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready":  false,
			"reason": "no tenant has a published snapshot",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// fleetServeParams carries runServe's parsed flags into fleet mode.
type fleetServeParams struct {
	Addr    string
	SpecDir string
	Opts    gar.Options
	Cfg     serveConfig
	Fleet   fleet.Config
}

// runServeFleet is the fleet-mode tail of `gar serve`.
func runServeFleet(p fleetServeParams) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
	}
	names, err := tenantNames(p.SpecDir)
	if err != nil {
		fatal(err)
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("gar serve: no tenant specs (*.json) in %s", p.SpecDir))
	}
	p.Fleet.Logf = logf
	reg := fleet.New(&specDirSource{dir: p.SpecDir, opts: p.Opts}, p.Fleet)
	for _, name := range names {
		if err := reg.Register(name); err != nil {
			fatal(err)
		}
	}

	srv := &http.Server{
		Addr:              p.Addr,
		Handler:           newFleetHandler(reg, p.Cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", p.Addr)
	if err != nil {
		fatal(err)
	}
	logf("fleet of %d tenants ready on %s", len(names), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Idle reaper: periodically evict tenants idle past -tenantidle,
	// each flushed before its snapshot is dropped.
	if p.Fleet.IdleAfter > 0 {
		go func() {
			period := p.Fleet.IdleAfter / 4
			if period < time.Second {
				period = time.Second
			}
			tick := time.NewTicker(period)
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
	// One window bounds the whole sequence: drain every tenant's
	// in-flight requests, then flush every tenant's final checkpoint.
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
