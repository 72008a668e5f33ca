package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/checkpoint"
)

var serveStateOpts = gar.Options{
	GeneralizeSize: 200, RetrievalK: 10, Seed: 1,
	EncoderEpochs: 12, RerankEpochs: 30,
}

// TestServeWarmStartHandler is the in-process restart: a trained
// server's checkpoint is recovered into a system that never ran
// Prepare or Train, and the warm handler answers /translate with the
// same SQL at the same generation while /healthz reports the
// checkpoint counters.
func TestServeWarmStartHandler(t *testing.T) {
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := cold.WriteCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	coldHandler := newServeHandler(cold, serveConfig{})

	warm, _, err := newSystem(demoSpec(), serveStateOpts)
	if err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := warm.RecoverCheckpoint(st)
	if err != nil || ck == nil || len(skipped) != 0 {
		t.Fatalf("recover: ck=%v skipped=%v err=%v", ck, skipped, err)
	}
	ckptr := warm.NewCheckpointer(st, gar.CheckpointerConfig{Keep: 2})
	warmHandler := newServeHandler(warm, serveConfig{Ckpt: ckptr})

	for _, q := range []string{"who is the oldest employee", "how many employees are there"} {
		body := fmt.Sprintf(`{"question": %q}`, q)
		a := postTranslate(coldHandler, body)
		b := postTranslate(warmHandler, body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%q: status cold=%d warm=%d", q, a.Code, b.Code)
		}
		var ra, rb translateResponse
		if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
			t.Fatal(err)
		}
		if ra.SQL != rb.SQL || ra.Dialect != rb.Dialect {
			t.Fatalf("%q: warm answer %q, cold answer %q", q, rb.SQL, ra.SQL)
		}
		if rb.Generation != gen {
			t.Fatalf("%q: warm generation %d, want checkpointed %d", q, rb.Generation, gen)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	warmHandler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", rec.Code, rec.Body)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["checkpoint"]; !ok {
		t.Fatalf("healthz has no checkpoint section: %v", health)
	}
}

// TestServeAllCorruptCleanEmptyState: when every checkpoint is damaged
// and the spec has no samples to cold-build from, the server comes up
// on a clean empty state — /translate and /readyz answer 503, nothing
// panics, and the damage is reported, not swallowed.
func TestServeAllCorruptCleanEmptyState(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", 7))
	if err := os.WriteFile(name, []byte("GARCKPT1 but then trash"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	sys, _, err := newSystem(demoSpec(), serveStateOpts)
	if err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := sys.RecoverCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	if ck != nil || len(skipped) != 1 {
		t.Fatalf("all-corrupt store: ck=%v skipped=%v", ck, skipped)
	}
	if sys.Ready() {
		t.Fatal("corrupt checkpoint marked the system ready")
	}

	h := newServeHandler(sys, serveConfig{Ckpt: sys.NewCheckpointer(st, gar.CheckpointerConfig{})})
	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("translate on empty state: %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, req)
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on empty state: %d, want 503", ready.Code)
	}
}

const serveStateEnv = "GAR_SERVE_STATE_DIR"

// TestServeStateServerHelper is the child body for the restart test:
// it runs the real runServe (listen, signal handling, shutdown flush)
// against the state directory passed in the environment.
func TestServeStateServerHelper(t *testing.T) {
	dir := os.Getenv(serveStateEnv)
	if dir == "" {
		t.Skip("helper process body; run via TestServeRestartSIGTERM")
	}
	runServe([]string{"-demo", "-addr", "127.0.0.1:0", "-statedir", dir, "-pool", "200"})
}

// serveChild starts a server subprocess — the named helper test with
// the given environment — and returns once it announces readiness,
// along with its address and a way to collect everything it logged.
func serveChild(t *testing.T, exe, helper string, env ...string) (cmd *exec.Cmd, addr string, logs func() string) {
	t.Helper()
	cmd = exec.Command(exe, "-test.run=^"+helper+"$", "-test.v")
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var buf bytes.Buffer
	logs = func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			buf.WriteString(line + "\n")
			mu.Unlock()
			if i := strings.Index(line, "ready on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("ready on "):]):
				default:
				}
			}
		}
	}()

	select {
	case addr = <-addrc:
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("server never became ready; logs:\n%s", logs())
	}
	return cmd, addr, logs
}

// stopServeChild sends SIGTERM and waits for a clean exit.
func stopServeChild(t *testing.T, cmd *exec.Cmd, logs func() string) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly: %v; logs:\n%s", err, logs())
		}
	case <-time.After(time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("server ignored SIGTERM; logs:\n%s", logs())
	}
}

func translateOver(t *testing.T, addr, question string) translateResponse {
	t.Helper()
	body := fmt.Sprintf(`{"question": %q}`, question)
	resp, err := http.Post("http://"+addr+"/translate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out translateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("translate status %d", resp.StatusCode)
	}
	return out
}

// TestServeRestartSIGTERM is the end-to-end durability contract: serve,
// translate, SIGTERM, restart on the same -statedir — the second
// process warm-starts from the flushed checkpoint (no Prepare, no
// Train) and answers the same question identically. A server signalled
// as soon as it announces readiness shuts down just as cleanly.
func TestServeRestartSIGTERM(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	if testing.Short() {
		t.Skip("subprocess restart test skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A SIGTERM sent the moment the readiness line appears must still
	// drain, flush the final checkpoint and exit 0.
	early, _, earlyLogs := serveChild(t, exe, "TestServeStateServerHelper", serveStateEnv+"="+t.TempDir())
	stopServeChild(t, early, earlyLogs)
	if out := earlyLogs(); !strings.Contains(out, "gar serve: draining connections") ||
		!strings.Contains(out, "final checkpoint flushed") {
		t.Fatalf("SIGTERM at readiness did not drain and flush; logs:\n%s", out)
	}

	dir := t.TempDir()
	const question = "who is the oldest employee"

	cmd, addr, logs := serveChild(t, exe, "TestServeStateServerHelper", serveStateEnv+"="+dir)
	first := translateOver(t, addr, question)
	stopServeChild(t, cmd, logs)
	if out := logs(); !strings.Contains(out, "final checkpoint flushed") {
		t.Fatalf("no final flush on SIGTERM; logs:\n%s", out)
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("state directory empty after shutdown (err=%v)", err)
	}

	cmd2, addr2, logs2 := serveChild(t, exe, "TestServeStateServerHelper", serveStateEnv+"="+dir)
	defer func() { _ = cmd2.Process.Kill() }()
	if out := logs2(); !strings.Contains(out, "warm start from checkpoint generation") {
		t.Fatalf("second start did not warm-start; logs:\n%s", out)
	}
	second := translateOver(t, addr2, question)
	if second.SQL != first.SQL || second.Dialect != first.Dialect {
		t.Fatalf("restart changed the answer: %q -> %q", first.SQL, second.SQL)
	}
	if second.Generation != first.Generation {
		t.Fatalf("restart changed the generation: %d -> %d", first.Generation, second.Generation)
	}
	stopServeChild(t, cmd2, logs2)
}

// TestRunCheckpointCLI drives the `gar checkpoint` verbs over a real
// state directory: list and verify see the valid generations, verify
// flags a damaged one with exit 1, and prune enforces retention.
func TestRunCheckpointCLI(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteCheckpoint(st); err != nil {
		t.Fatal(err)
	}
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m.Generation = 2
	if err := st.Write(m, sections); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := runCheckpoint([]string{"list", "-statedir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("list exit %d: %s", code, errOut.String())
	}
	if n := strings.Count(out.String(), "ok"); n != 2 {
		t.Fatalf("list saw %d valid checkpoints, want 2:\n%s", n, out.String())
	}

	// Damage the newest file in place: verify must flag it.
	name := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", 2))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := runCheckpoint([]string{"verify", "-statedir", dir, "-o", "json"}, &out, &errOut); code != 1 {
		t.Fatalf("verify exit %d, want 1: %s", code, errOut.String())
	}
	var reports []checkpointReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Valid || !reports[1].Valid {
		t.Fatalf("verify verdicts wrong: %+v", reports)
	}

	// Prune to one generation; the damaged newest survives by
	// generation order, which is exactly why verify exists.
	out.Reset()
	errOut.Reset()
	if code := runCheckpoint([]string{"prune", "-statedir", dir, "-keep", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("prune exit %d: %s", code, errOut.String())
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("prune left %d generations, want 1", len(entries))
	}

	// Usage errors exit 2.
	if code := runCheckpoint(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-verb exit %d, want 2", code)
	}
	if code := runCheckpoint([]string{"list"}, &out, &errOut); code != 2 {
		t.Fatalf("no-statedir exit %d, want 2", code)
	}
	if code := runCheckpoint([]string{"bogus", "-statedir", dir}, &out, &errOut); code != 2 {
		t.Fatalf("bad-verb exit %d, want 2", code)
	}
}

// TestBuildServingSystemPaths drives the startup decision tree
// directly: warm start from a valid checkpoint, fallback past a
// corrupt one, cold build when nothing is recoverable, clean empty
// state for a schema-only spec, and abandoned-temp cleanup.
func TestBuildServingSystemPaths(t *testing.T) {
	logf := func(format string, args ...any) { t.Logf("serve: "+format, args...) }

	// No statedir: plain cold build, no store.
	sys, st, warm, err := buildServingSystem("", demoSpec(), serveStateOpts, "", logf)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil || warm || !sys.Ready() {
		t.Fatalf("cold path: store=%v warm=%v ready=%v", st, warm, sys.Ready())
	}

	// Seed a state directory from that system, plus a corrupt newer
	// generation and an abandoned temp file.
	dir := t.TempDir()
	seed, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.WriteCheckpoint(seed)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", gen+1))
	if err := os.WriteFile(bad, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".ckpt-orphan.tmp")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Statedir with a recoverable generation: warm start past the
	// corrupt file, temp swept.
	sys2, st2, warm2, err := buildServingSystem(dir, demoSpec(), serveStateOpts, "", logf)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == nil || !warm2 || !sys2.Ready() || sys2.Generation() != gen {
		t.Fatalf("warm path: store=%v warm=%v ready=%v gen=%d", st2, warm2, sys2.Ready(), sys2.Generation())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp not swept: %v", err)
	}

	// Statedir with nothing recoverable but samples in the spec: cold
	// build behind the store.
	sys3, st3, warm3, err := buildServingSystem(t.TempDir(), demoSpec(), serveStateOpts, "", logf)
	if err != nil {
		t.Fatal(err)
	}
	if st3 == nil || warm3 || !sys3.Ready() {
		t.Fatalf("cold-behind-store path: store=%v warm=%v ready=%v", st3, warm3, sys3.Ready())
	}

	// Schema-only spec and an empty statedir: clean empty state.
	bare := demoSpec()
	bare.Samples = nil
	sys4, st4, warm4, err := buildServingSystem(t.TempDir(), bare, serveStateOpts, "", logf)
	if err != nil {
		t.Fatal(err)
	}
	if st4 == nil || warm4 || sys4.Ready() {
		t.Fatalf("empty-state path: store=%v warm=%v ready=%v", st4, warm4, sys4.Ready())
	}
}

// TestCheckpointReportsText pins the human-readable list output: the
// empty message, the ok row and the INVALID row.
func TestCheckpointReportsText(t *testing.T) {
	var out bytes.Buffer
	printCheckpointReports(&out, nil)
	if !strings.Contains(out.String(), "no checkpoints") {
		t.Fatalf("empty listing = %q", out.String())
	}
	out.Reset()
	printCheckpointReports(&out, []checkpointReport{
		{Generation: 2, Size: 10, Valid: true, Database: "employee", Sections: 4},
		{Generation: 1, Size: 3, Error: "checkpoint: corrupt"},
	})
	text := out.String()
	if !strings.Contains(text, "ok") || !strings.Contains(text, "db=employee") {
		t.Fatalf("valid row missing: %q", text)
	}
	if !strings.Contains(text, "INVALID") || !strings.Contains(text, "corrupt") {
		t.Fatalf("invalid row missing: %q", text)
	}
}
