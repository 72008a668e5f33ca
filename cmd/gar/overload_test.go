package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
)

func testServeOpts() gar.Options {
	return gar.Options{
		GeneralizeSize: 200, RetrievalK: 10, Seed: 1,
		EncoderEpochs: 12, RerankEpochs: 30,
	}
}

func getJSON(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("GET %s: not JSON: %s", path, rec.Body)
	}
	return rec.Code, m
}

func postReload(h http.Handler) *httptest.ResponseRecorder {
	return serveRequest(h, http.MethodPost, "/reload", "")
}

var (
	demoModelsOnce sync.Once
	demoModels     *gar.Models
	demoModelsErr  error
)

// demoModelsFile saves models trained once per test binary on the demo
// spec (few epochs: the reload tests do not judge quality) into the
// test's directory, so a server with -loadmodels reloads with a Prepare
// and a deploy and no training.
func demoModelsFile(t *testing.T) string {
	t.Helper()
	demoModelsOnce.Do(func() {
		opts := testServeOpts()
		opts.EncoderEpochs, opts.RerankEpochs = 4, 5
		_, _, demoModels, demoModelsErr = buildSystemModels(demoSpec(), opts, "")
	})
	if demoModelsErr != nil {
		t.Fatal(demoModelsErr)
	}
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := demoModels.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSpec writes sp to path as JSON.
func writeSpec(t *testing.T, path string, sp *spec) {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// servedPool returns the generation and the dialect set of the pool the
// system serves, read from its checkpoint export.
func servedPool(t *testing.T, sys *gar.System) (uint64, map[string]bool) {
	t.Helper()
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if s.Name != core.SectionPool {
			continue
		}
		var entries []struct{ SQL, Dialect string }
		if err := gob.NewDecoder(bytes.NewReader(s.Data)).Decode(&entries); err != nil {
			t.Fatal(err)
		}
		pool := make(map[string]bool, len(entries))
		for _, e := range entries {
			pool[e.Dialect] = true
		}
		return m.Generation, pool
	}
	t.Fatal("checkpoint export has no pool section")
	return 0, nil
}

// TestServeReloadUnderTraffic: translations keep answering while POST
// /reload repeats, the spec alternating between two sample sets. No
// translation fails or degrades, and every reply's candidates belong to
// the pool of the generation it reports: a reply never mixes the
// outgoing and the incoming snapshot.
func TestServeReloadUnderTraffic(t *testing.T) {
	setA, setB := demoSpec(), demoSpec()
	setA.Samples, setB.Samples = setA.Samples[:4], setB.Samples[4:]
	path := writeSpecFile(t, setA)
	reg, h := newTestServer(t, &specSource{file: path, opts: testServeOpts(), loadModels: demoModelsFile(t)},
		fleet.Config{}, serveConfig{})
	reload := func(sp *spec) error {
		writeSpec(t, path, sp)
		if rec := postReload(h); rec.Code != http.StatusOK {
			return fmt.Errorf("reload: status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}

	// Generalization is seeded, so each sample set maps to one pool and
	// the generation's parity names it.
	gen0, poolA := servedPool(t, defaultSys(t, reg))
	if err := reload(setB); err != nil {
		t.Fatal(err)
	}
	_, poolB := servedPool(t, defaultSys(t, reg))
	if err := reload(setA); err != nil {
		t.Fatal(err)
	}
	if _, again := servedPool(t, defaultSys(t, reg)); !maps.Equal(again, poolA) {
		t.Fatal("generalization not deterministic: reloading set A built another pool")
	}
	if maps.Equal(poolA, poolB) {
		t.Fatal("the two sample sets build the same pool; the test cannot tell them apart")
	}

	const reloads = 8
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < reloads; i++ {
			set := setB
			if i%2 == 1 {
				set = setA
			}
			if err := reload(set); err != nil {
				t.Errorf("reload %d under traffic: %v", i, err)
				return
			}
		}
	}()
	questions := []string{"how many employees are there", "who is the oldest employee",
		"which employees are older than 30", "what is the average bonus"}
	var served sync.Map
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := questions[(r+i)%len(questions)]
				rec := postTranslate(h, fmt.Sprintf(`{"question": %q}`, q))
				var resp translateResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("translate %q during reload: status %d: %s", q, rec.Code, rec.Body)
					return
				}
				if resp.Degraded {
					t.Errorf("translate %q during reload degraded: %v", q, resp.Warnings)
					return
				}
				served.Store(resp.Generation, true)
				pool, label := poolA, "A"
				if (resp.Generation-gen0)%2 == 1 {
					pool, label = poolB, "B"
				}
				for _, c := range resp.Candidates {
					if !pool[c.Dialect] {
						t.Errorf("generation %d (set %s) reply holds a candidate of another pool: %q",
							resp.Generation, label, c.Dialect)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := defaultSys(t, reg).Generation(), gen0+2+reloads; got != want {
		t.Errorf("generation after %d reloads: %d, want %d", 2+reloads, got, want)
	}
	n := 0
	served.Range(func(any, any) bool { n++; return true })
	if n < 2 {
		t.Errorf("replies came from %d generation(s); the traffic never straddled a reload", n)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeNotReady: before any snapshot is published the service must
// refuse work loudly — 503 everywhere a probe or client looks.
func TestServeNotReady(t *testing.T) {
	bare := demoSpec()
	bare.Samples = nil
	src := &specSource{file: writeSpecFile(t, bare), opts: testServeOpts()}
	_, h := newTestServer(t, src, fleet.Config{}, serveConfig{})

	rec := postTranslate(h, `{"question": "anything"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("translate on unready system: status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("unready translate shed without Retry-After")
	}

	code, body := getJSON(t, h, "/readyz")
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Errorf("readyz on unready system: %d %v", code, body)
	}
	code, body = getJSON(t, h, "/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Errorf("healthz on unready system: %d %v", code, body)
	}
}

// TestServeReadyzHealthz checks the happy-path shape of both probes.
func TestServeReadyzHealthz(t *testing.T) {
	_, h := newTestServer(t, &specSource{demo: true, opts: testServeOpts()},
		fleet.Config{MaxInFlight: 4}, serveConfig{})

	code, body := getJSON(t, h, "/readyz")
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz: %d %v", code, body)
	}
	if code, body := getJSON(t, h, "/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}

	code, body = getJSON(t, h, "/db/default/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("tenant healthz: %d %v", code, body)
	}
	if body["generation"].(float64) < 1 {
		t.Errorf("tenant healthz generation: %v", body["generation"])
	}
	br := body["breaker"].(map[string]any)
	if br["state"] != "closed" {
		t.Errorf("healthz breaker state: %v", br["state"])
	}
	adm := body["admission"].(map[string]any)
	if adm["max_in_flight"].(float64) != 4 {
		t.Errorf("healthz admission: %v", adm)
	}
}

// TestServeHealthzDegraded: a tripped re-rank breaker keeps the service
// serving (readyz 200) but flips /healthz to degraded so operators see
// the reduced answer quality.
func TestServeHealthzDegraded(t *testing.T) {
	reg, h := newTestServer(t, &specSource{demo: true, opts: testServeOpts()},
		fleet.Config{BreakerFailures: 1, BreakerCooldown: time.Hour}, serveConfig{})
	inj := faults.NewInjector(1).Fail(faults.Rerank, errors.New("reranker down"))
	defaultSys(t, reg).SetFaultInjector(inj)

	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded translate: status %d: %s", rec.Code, rec.Body)
	}
	var resp translateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("re-rank failure not flagged degraded")
	}

	if code, body := getJSON(t, h, "/healthz"); code != http.StatusOK || body["status"] != "degraded" {
		t.Errorf("healthz with open breaker: %d %v", code, body)
	}
	code, body := getJSON(t, h, "/db/default/healthz")
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Errorf("tenant healthz with open breaker: %d %v", code, body)
	}
	if br := body["breaker"].(map[string]any); br["state"] != "open" {
		t.Errorf("healthz breaker: %v", br)
	}
	if code, body := getJSON(t, h, "/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Errorf("degraded service must stay ready: %d %v", code, body)
	}
}

// TestServeBurstSheds saturates the service deterministically (a fault
// gate parks admitted requests inside retrieval) and checks the
// admission contract: bounded in-flight work, every excess arrival shed
// immediately with 429 + Retry-After, and every admitted request served
// once the stall clears.
func TestServeBurstSheds(t *testing.T) {
	reg, h := newTestServer(t, &specSource{demo: true, opts: testServeOpts()}, fleet.Config{
		MaxInFlight: 2,
		MaxQueue:    2,
		RetryAfter:  3 * time.Second,
		NoBreaker:   true,
	}, serveConfig{Timeout: 10 * time.Second})
	inj := faults.NewInjector(1)
	release := inj.Block(faults.Retrieval)
	defer release()
	defaultSys(t, reg).SetFaultInjector(inj)

	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, 16)
	post := func() {
		rec := postTranslate(h, `{"question": "how many employees are there"}`)
		results <- result{rec.Code, rec.Header().Get("Retry-After")}
	}
	admission := func() map[string]any {
		_, body := getJSON(t, h, "/db/default/healthz")
		return body["admission"].(map[string]any)
	}

	// Fill both worker slots; the holders park inside retrieval.
	go post()
	go post()
	waitFor(t, "slot holders to park in retrieval", func() bool {
		return inj.Calls(faults.Retrieval) == 2
	})
	// Fill both queue slots.
	go post()
	go post()
	waitFor(t, "queue to fill", func() bool {
		return admission()["queued"].(float64) == 2
	})

	// Saturated: every further arrival must shed synchronously with
	// 429 and a Retry-After hint, without touching the pipeline.
	for i := 0; i < 6; i++ {
		go post()
	}
	for i := 0; i < 6; i++ {
		r := <-results
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d, want 429", i, r.code)
		}
		if r.retryAfter != "3" {
			t.Fatalf("shed %d: Retry-After %q, want \"3\"", i, r.retryAfter)
		}
	}
	if got := inj.Calls(faults.Retrieval); got != 2 {
		t.Fatalf("shed requests reached the pipeline: %d retrieval calls, want 2", got)
	}

	// Open the gate: all four admitted requests complete.
	release()
	for i := 0; i < 4; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request %d after release: status %d", i, r.code)
		}
	}

	adm := admission()
	if adm["admitted"].(float64) != 4 {
		t.Errorf("admitted: %v, want 4", adm["admitted"])
	}
	if adm["shed_queue_full"].(float64) != 6 {
		t.Errorf("shed_queue_full: %v, want 6", adm["shed_queue_full"])
	}
	if peak := adm["peak_in_flight"].(float64); peak > 2 {
		t.Errorf("peak_in_flight: %v, want <= 2", peak)
	}
	if adm["in_flight"].(float64) != 0 || adm["queued"].(float64) != 0 {
		t.Errorf("occupancy after drain: %v", adm)
	}
}

// TestServeReload: POST /reload publishes a new generation, a failing
// reload answers 422 and leaves the tenant as it was, and concurrent
// reloads are refused with 409.
func TestServeReload(t *testing.T) {
	reg, h := newTestServer(t, &specSource{file: writeSpecFile(t, demoSpec()), opts: testServeOpts()}, fleet.Config{}, serveConfig{})

	before := defaultSys(t, reg).Generation()
	rec := postReload(h)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Generation uint64 `json:"generation"`
		Pool       int    `json:"pool"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != before+1 || out.Pool == 0 {
		t.Errorf("reload response: %+v (generation before: %d)", out, before)
	}
	if rec := postTranslate(h, `{"question": "how many employees are there"}`); rec.Code != http.StatusOK {
		t.Errorf("translate after reload: status %d", rec.Code)
	}

	if rec := serveRequest(h, http.MethodGet, "/reload", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload: status %d", rec.Code)
	}

	// A failing reload answers 422 and changes nothing: not the tenant's
	// generation, pool or memory charge. alpha serves a small pool and
	// beta the full demo pool, under a process budget too small for two
	// full pools: growing alpha to the full spec builds on its fork, but
	// adopt's Grow is denied. The tenants activate through a reload so
	// that alpha has no cached translations for adopt to purge.
	small := demoSpec()
	small.Samples = small.Samples[:3]
	models := demoModelsFile(t)
	dir := writeSpecDir(t, "beta")
	writeSpec(t, filepath.Join(dir, "alpha.json"), small)
	activate := func(fcfg fleet.Config) (http.Handler, map[string]fleet.TenantHealth) {
		reg, h := newTestFleet(t, &specSource{dir: dir, opts: testServeOpts(), loadModels: models}, fcfg, serveConfig{}, "alpha", "beta")
		out := map[string]fleet.TenantHealth{}
		for _, name := range []string{"alpha", "beta"} {
			if rec := postFleetReload(h, name); rec.Code != http.StatusOK {
				t.Fatalf("activate %s: status %d: %s", name, rec.Code, rec.Body)
			}
			row, err := reg.TenantHealth(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = row
		}
		return h, out
	}
	_, probe := activate(fleet.Config{MemLimit: 64 << 20, TenantMemLimit: 64 << 20})
	sa, sb := probe["alpha"].Memory.SnapshotBytes, probe["beta"].Memory.SnapshotBytes
	if sa >= sb {
		t.Fatalf("small spec charges %d, not below the full spec's %d", sa, sb)
	}
	limit := (sa + 3*sb) / 2
	stateDir := t.TempDir()
	fh, live := activate(fleet.Config{MemLimit: limit, TenantMemLimit: limit, StateDir: stateDir})
	alpha := live["alpha"]
	noSamples := demoSpec()
	noSamples.Samples = nil
	failures := []struct {
		name  string
		write func(path string)
		want  string
	}{
		{"unreadable spec", func(path string) {
			if err := os.WriteFile(path, []byte("spec unreadable"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, "parsing"},
		{"spec without samples", func(path string) { writeSpec(t, path, noSamples) }, "no sample queries"},
		{"denied grow", func(path string) { writeSpec(t, path, demoSpec()) }, "memory budget"},
	}
	for _, f := range failures {
		f.write(filepath.Join(dir, "alpha.json"))
		rec := postFleetReload(fh, "alpha")
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), f.want) {
			t.Errorf("%s: status %d: %s", f.name, rec.Code, rec.Body)
		}
		code, row := getJSON(t, fh, "/db/alpha/healthz")
		used := row["memory"].(map[string]any)["budget"].(map[string]any)["used"].(float64)
		if code != http.StatusOK || uint64(row["generation"].(float64)) != alpha.Generation ||
			int(row["pool"].(float64)) != alpha.Pool || int64(used) != alpha.Memory.Budget.Used {
			t.Errorf("%s changed the tenant: generation %v pool %v used %v; before %d %d %d", f.name,
				row["generation"], row["pool"], used, alpha.Generation, alpha.Pool, alpha.Memory.Budget.Used)
		}
	}
	if rec := postFleetTranslate(fh, "alpha", "how many employees are there"); rec.Code != http.StatusOK {
		t.Errorf("translate after failed reloads: status %d", rec.Code)
	}

	// A reload in progress makes a second one bounce with 409 instead
	// of queueing behind it.
	gate := make(chan struct{})
	src := &gatedFleetSource{
		specSource: &specSource{demo: true, opts: testServeOpts()},
		gate:       map[string]chan struct{}{defaultTenant: gate},
		entered:    make(chan string, 1),
	}
	_, blocking := newTestFleet(t, src, fleet.Config{}, serveConfig{}, defaultTenant)
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postReload(blocking) }()
	<-src.entered
	if rec := postReload(blocking); rec.Code != http.StatusConflict {
		t.Errorf("concurrent reload: status %d, want 409", rec.Code)
	}
	close(gate)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("blocked reload after release: status %d", rec.Code)
	}
}
