package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/fleet"
)

// newTestServer starts a server the way runServe does — openRegistry,
// then the one handler — and shuts the registry down when the test
// ends. Without a spec directory src is served as the one tenant
// default, activated before newTestServer returns.
func newTestServer(t *testing.T, src *specSource, fcfg fleet.Config, cfg serveConfig) (*fleet.Registry, http.Handler) {
	t.Helper()
	reg, err := openRegistry(src, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return reg, newHandler(reg, cfg)
}

// testHandler serves the demo database as tenant default.
func testHandler(t *testing.T, cfg serveConfig) http.Handler {
	t.Helper()
	_, h := newTestServer(t, &specSource{demo: true, opts: testServeOpts()}, fleet.Config{}, cfg)
	return h
}

// writeSpecFile writes sp as a -spec file and returns its path.
func writeSpecFile(t *testing.T, sp *spec) string {
	t.Helper()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// defaultSys returns the serving system of tenant default.
func defaultSys(t *testing.T, reg *fleet.Registry) *gar.System {
	t.Helper()
	h, err := reg.Acquire(context.Background(), defaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return h.Sys()
}

func serveRequest(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postTranslate(h http.Handler, body string) *httptest.ResponseRecorder {
	return serveRequest(h, http.MethodPost, "/translate", body)
}

func TestServeTranslateAndHealthz(t *testing.T) {
	h := testHandler(t, serveConfig{})

	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("translate status %d: %s", rec.Code, rec.Body)
	}
	var resp translateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ok, err := gar.ExactMatch(resp.SQL, "SELECT COUNT(*) FROM employee")
	if err != nil || !ok {
		t.Errorf("served translation wrong: %s (%v)", resp.SQL, err)
	}
	if resp.Degraded || len(resp.Candidates) == 0 {
		t.Errorf("unexpected response shape: %+v", resp)
	}

	for _, path := range []string{"/healthz", "/db/default/healthz"} {
		hrec := serveRequest(h, http.MethodGet, path, "")
		if hrec.Code != http.StatusOK {
			t.Fatalf("%s status %d", path, hrec.Code)
		}
		var health struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		if health.Status != "ok" {
			t.Errorf("%s: %+v", path, health)
		}
	}
	var row struct {
		Pool int `json:"pool"`
	}
	if err := json.Unmarshal(serveRequest(h, http.MethodGet, "/db/default/healthz", "").Body.Bytes(), &row); err != nil {
		t.Fatal(err)
	}
	if row.Pool == 0 {
		t.Errorf("tenant healthz pool: %+v", row)
	}
}

// TestServeRequestValidation pins the request contract: bad bodies
// answer 400 or 413, and every error path — a wrong method on any
// route, an unknown path — answers JSON with an error field.
func TestServeRequestValidation(t *testing.T) {
	h := testHandler(t, serveConfig{MaxBody: 256})

	if rec := postTranslate(h, `{"question": ""}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty question: status %d", rec.Code)
	}
	if rec := postTranslate(h, `not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", rec.Code)
	}
	big := `{"question": "` + strings.Repeat("x", 4096) + `"}`
	if rec := postTranslate(h, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", rec.Code)
	}
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/translate", http.StatusMethodNotAllowed},
		{http.MethodGet, "/db/default/translate", http.StatusMethodNotAllowed},
		{http.MethodGet, "/db/default/reload", http.StatusMethodNotAllowed},
		{http.MethodGet, "/db/default/feedback", http.StatusMethodNotAllowed},
		{http.MethodPost, "/db/default/healthz", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/readyz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/no/such/route", http.StatusNotFound},
		{http.MethodPost, "/db/nosuch/translate", http.StatusNotFound},
	} {
		rec := serveRequest(h, tc.method, tc.path, `{"question": "q"}`)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		// Every error path must answer JSON with an error field.
		var e errorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: error response not JSON: %s", tc.method, tc.path, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.method, tc.path, ct)
		}
	}
}

func TestServeTimeout(t *testing.T) {
	// A nanosecond budget cannot finish retrieval: the request must
	// come back 504, not hang or crash.
	h := testHandler(t, serveConfig{Timeout: time.Nanosecond})
	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status %d: %s", rec.Code, rec.Body)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("handler bug")) {
		t.Errorf("panic message lost: %s", rec.Body)
	}
}

// TestServeHealthzReportsCaches pins the cache counters surfaced by
// the tenant's health row: a repeated question must hit the
// translation cache, and the hit/miss/size numbers must be visible to
// operators.
func TestServeHealthzReportsCaches(t *testing.T) {
	h := testHandler(t, serveConfig{})
	for i := 0; i < 2; i++ {
		if rec := postTranslate(h, `{"question": "how many employees are there"}`); rec.Code != http.StatusOK {
			t.Fatalf("translate %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := serveRequest(h, http.MethodGet, "/db/default/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health struct {
		Caches struct {
			Translations struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
				Size   int    `json:"size"`
			} `json:"translations"`
			Embeddings struct {
				Size int `json:"size"`
			} `json:"embeddings"`
		} `json:"caches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	tc := health.Caches.Translations
	if tc.Hits != 1 || tc.Misses != 1 || tc.Size != 1 {
		t.Errorf("translation cache counters = %+v", tc)
	}
	if health.Caches.Embeddings.Size != 1 {
		t.Errorf("embedding cache size = %d, want 1", health.Caches.Embeddings.Size)
	}
}

// TestServeHealthzReportsExecGuide: with the exec guide on, the
// tenant's health row carries the stage's counters, and they advance
// with a translation; with it off there is no block.
func TestServeHealthzReportsExecGuide(t *testing.T) {
	opts := testServeOpts()
	opts.ExecGuide = true
	_, h := newTestServer(t, &specSource{demo: true, opts: opts}, fleet.Config{}, serveConfig{})
	if rec := postTranslate(h, `{"question": "which employees are older than 30"}`); rec.Code != http.StatusOK {
		t.Fatalf("translate status %d: %s", rec.Code, rec.Body)
	}
	var health struct {
		ExecGuide *struct {
			Enabled  bool   `json:"enabled"`
			Executed uint64 `json:"executed"`
		} `json:"execguide"`
	}
	if err := json.Unmarshal(serveRequest(h, http.MethodGet, "/db/default/healthz", "").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.ExecGuide == nil || !health.ExecGuide.Enabled || health.ExecGuide.Executed == 0 {
		t.Fatalf("execguide block = %+v", health.ExecGuide)
	}

	var bare map[string]json.RawMessage
	plain := testHandler(t, serveConfig{})
	if err := json.Unmarshal(serveRequest(plain, http.MethodGet, "/db/default/healthz", "").Body.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare["execguide"]; ok {
		t.Error("health row has an execguide block with the stage off")
	}
}

// TestServeAnswersMatchBuildSystem: a -spec server answers, over the
// legacy routes and /db/default/..., exactly what buildSystem +
// TranslateContext answer on the same spec — SQL, dialect, every
// candidate with its score, and the generation.
func TestServeAnswersMatchBuildSystem(t *testing.T) {
	const topK = 8
	path := writeSpecFile(t, demoSpec())
	_, h := newTestServer(t, &specSource{file: path, opts: testServeOpts()}, fleet.Config{}, serveConfig{TopK: topK})
	want, _, err := buildSystem(demoSpec(), testServeOpts(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"how many employees are there",
		"who is the oldest employee",
		"which employees are older than 30",
		"what is the average bonus",
		"list the cities of employees",
	} {
		res, err := want.TranslateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range []string{"/translate", "/db/default/translate"} {
			rec := serveRequest(h, http.MethodPost, route, `{"question": "`+q+`"}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %q: status %d: %s", route, q, rec.Code, rec.Body)
			}
			var got translateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if got.SQL != res.SQL || got.Dialect != res.Dialect || got.Generation != res.Generation ||
				got.Tenant != defaultTenant {
				t.Fatalf("%s %q: served %q/%q gen %d tenant %q, built %q/%q gen %d", route, q,
					got.SQL, got.Dialect, got.Generation, got.Tenant, res.SQL, res.Dialect, res.Generation)
			}
			if len(got.Candidates) != min(topK, len(res.Candidates)) {
				t.Fatalf("%s %q: %d candidates, want %d", route, q, len(got.Candidates), min(topK, len(res.Candidates)))
			}
			for i, c := range got.Candidates {
				w := res.Candidates[i]
				if c.SQL != w.SQL || c.Dialect != w.Dialect || c.Score != w.Score {
					t.Fatalf("%s %q candidate %d: served %+v, built %+v", route, q, i, c, w)
				}
			}
		}
	}
}
