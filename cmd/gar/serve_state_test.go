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
	"repro/internal/feedback"
	"repro/internal/fleet"
)

var serveStateOpts = gar.Options{
	GeneralizeSize: 200, RetrievalK: 10, Seed: 1,
	EncoderEpochs: 12, RerankEpochs: 30,
}

// TestServeWarmStartHandler is the in-process restart: a trained
// server's checkpoint is recovered into a tenant that never runs
// Prepare or Train, and the warm server answers /translate with the
// same SQL at the same generation as a cold one while the tenant's
// health row reports the checkpoint counters.
func TestServeWarmStartHandler(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
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
	src := &specSource{demo: true, opts: serveStateOpts}
	_, coldHandler := newTestServer(t, src, fleet.Config{}, serveConfig{})
	warmReg, warmHandler := newTestServer(t, src, fleet.Config{StateDir: dir}, serveConfig{})
	if row, _ := warmReg.TenantHealth(defaultTenant); row.Counters.WarmStarts != 1 || row.Counters.ColdBuilds != 0 {
		t.Fatalf("warm server did not warm-start: %+v", row.Counters)
	}

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

	rec := serveRequest(warmHandler, http.MethodGet, "/db/default/healthz", "")
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

	bare := demoSpec()
	bare.Samples = nil
	var logs strings.Builder
	var logMu sync.Mutex
	_, h := newTestServer(t, &specSource{file: writeSpecFile(t, bare), opts: serveStateOpts}, fleet.Config{
		StateDir: dir,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	}, serveConfig{})
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
	logMu.Lock()
	defer logMu.Unlock()
	if !strings.Contains(logs.String(), "skipping checkpoint "+name) {
		t.Fatalf("damaged checkpoint not reported; logs:\n%s", logs.String())
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

// TestServeActivationPaths drives the startup decision tree of the
// single tenant through openRegistry, the path runServe takes: a cold
// build without a state directory, a warm start past a corrupt newer
// checkpoint with the abandoned temp swept, a cold build behind an
// empty store, and a schema-only spec on an empty store serving 503
// until a reload.
func TestServeActivationPaths(t *testing.T) {
	demo := &specSource{demo: true, opts: serveStateOpts}
	row := func(reg *fleet.Registry) fleet.TenantHealth {
		t.Helper()
		r, err := reg.TenantHealth(defaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// No statedir: plain cold build, no store.
	reg, _ := newTestServer(t, demo, fleet.Config{}, serveConfig{})
	if r := row(reg); r.Checkpoint != nil || r.Counters.ColdBuilds != 1 || !r.Ready {
		t.Fatalf("cold path: checkpoint=%v counters=%+v ready=%v", r.Checkpoint, r.Counters, r.Ready)
	}

	// Seed a state directory from that system, plus a corrupt newer
	// generation and an abandoned temp file.
	dir := t.TempDir()
	seed, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := defaultSys(t, reg).WriteCheckpoint(seed)
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
	reg2, _ := newTestServer(t, demo, fleet.Config{StateDir: dir}, serveConfig{})
	if r := row(reg2); r.Checkpoint == nil || r.Counters.WarmStarts != 1 || !r.Ready || r.Generation != gen {
		t.Fatalf("warm path: checkpoint=%v counters=%+v ready=%v gen=%d", r.Checkpoint, r.Counters, r.Ready, r.Generation)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp not swept: %v", err)
	}

	// Statedir with nothing recoverable but samples in the spec: cold
	// build behind the store.
	reg3, _ := newTestServer(t, demo, fleet.Config{StateDir: t.TempDir()}, serveConfig{})
	if r := row(reg3); r.Checkpoint == nil || r.Counters.ColdBuilds != 1 || r.Counters.WarmStarts != 0 || !r.Ready {
		t.Fatalf("cold-behind-store path: checkpoint=%v counters=%+v ready=%v", r.Checkpoint, r.Counters, r.Ready)
	}

	// Schema-only spec and an empty statedir: clean empty state that
	// serves 503.
	bare := demoSpec()
	bare.Samples = nil
	reg4, h4 := newTestServer(t, &specSource{file: writeSpecFile(t, bare), opts: serveStateOpts},
		fleet.Config{StateDir: t.TempDir()}, serveConfig{})
	if r := row(reg4); r.Checkpoint == nil || r.Counters.WarmStarts != 0 || r.Counters.ColdBuilds != 0 || r.Ready {
		t.Fatalf("empty-state path: checkpoint=%v counters=%+v ready=%v", r.Checkpoint, r.Counters, r.Ready)
	}
	if rec := postTranslate(h4, `{"question": "how many employees are there"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty-state translate = %d, want 503", rec.Code)
	}

	// The same rule without a statedir: a schema-only spec serves 503
	// too, instead of failing startup.
	reg5, _ := newTestServer(t, &specSource{file: writeSpecFile(t, bare), opts: serveStateOpts},
		fleet.Config{}, serveConfig{})
	if r := row(reg5); r.State != "active" || r.Ready {
		t.Fatalf("schema-only without statedir: state=%s ready=%v", r.State, r.Ready)
	}

	// A spec that cannot be built fails activation, so runServe exits
	// before announcing readiness.
	broken := demoSpec()
	broken.Samples = []string{"SELECT nosuch FROM nowhere"}
	if _, err := openRegistry(&specSource{file: writeSpecFile(t, broken), opts: serveStateOpts}, fleet.Config{}); err == nil {
		t.Fatal("a spec whose samples bind nothing activated")
	}
	if _, err := openRegistry(&specSource{file: filepath.Join(t.TempDir(), "missing.json"), opts: serveStateOpts}, fleet.Config{}); err == nil {
		t.Fatal("a missing spec file activated")
	}
}

// TestServeUpgradesSingleDatabaseStateDir: a state directory laid out
// by the single-database server of earlier releases — checkpoints
// directly in the directory, the feedback WAL in {dir}/feedback —
// upgrades in place. `gar serve -demo -statedir dir -feedback` warm-starts at the
// stored generation, its health row counts the stored WAL records, and
// its next checkpoint lands in dir, not in dir/default.
func TestServeUpgradesSingleDatabaseStateDir(t *testing.T) {
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
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sys.WriteCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	flog, err := feedback.Open(filepath.Join(dir, "feedback"), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"how many people work here", "count the staff"} {
		rec := feedback.Record{Question: q, SQL: "SELECT COUNT(*) FROM employee",
			Source: feedback.SourceCorrected, Generation: gen}
		if _, err := flog.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := flog.Close(); err != nil {
		t.Fatal(err)
	}

	cmd, addr, logs := serveChild(t, exe, "TestServeMemlimitHelper",
		serveMemArgsEnv+"=-demo -addr 127.0.0.1:0 -pool 200 -feedback -traininterval 1h -statedir "+dir)
	defer func() { _ = cmd.Process.Kill() }()
	if out := logs(); !strings.Contains(out, fmt.Sprintf("warm start from checkpoint generation %d", gen)) {
		t.Fatalf("did not warm-start from the stored generation %d; logs:\n%s", gen, out)
	}
	var row struct {
		Generation uint64                `json:"generation"`
		Counters   fleet.Counters        `json:"counters"`
		Feedback   *fleet.FeedbackHealth `json:"feedback"`
	}
	resp, err := http.Get("http://" + addr + "/db/default/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&row)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if row.Generation != gen || row.Counters.WarmStarts != 1 {
		t.Fatalf("tenant row: generation %d warm starts %d, want generation %d warm", row.Generation, row.Counters.WarmStarts, gen)
	}
	if row.Feedback == nil || row.Feedback.WAL.Records != 2 {
		t.Fatalf("tenant feedback block = %+v, want the 2 stored WAL records", row.Feedback)
	}
	if got := translateOver(t, addr, "who is the oldest employee"); got.Generation != gen {
		t.Fatalf("served generation %d, want %d", got.Generation, gen)
	}
	resp, err = http.Post("http://"+addr+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	stopServeChild(t, cmd, logs)

	if _, err := os.Stat(st.Path(gen + 1)); err != nil {
		t.Fatalf("the next checkpoint did not land in the state directory: %v; logs:\n%s", err, logs())
	}
	if _, err := os.Stat(filepath.Join(dir, defaultTenant)); !os.IsNotExist(err) {
		t.Fatalf("the upgrade created a tenant subdirectory (err=%v)", err)
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
