package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/fleet"
)

// feedbackHandler serves the demo database as tenant default with the
// feedback endpoint armed: a real WAL in the flat state directory and
// a trainer whose quiet window outlasts the test, so no background
// cycle races the assertions.
func feedbackHandler(t *testing.T) (*fleet.Registry, http.Handler) {
	t.Helper()
	return newTestServer(t, &specSource{demo: true, opts: testServeOpts()}, fleet.Config{
		StateDir: t.TempDir(), Feedback: true, TrainInterval: time.Hour,
	}, serveConfig{})
}

// feedbackRow is tenant default's feedback health block.
func feedbackRow(t *testing.T, reg *fleet.Registry) *fleet.FeedbackHealth {
	t.Helper()
	row, err := reg.TenantHealth(defaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if row.Feedback == nil {
		t.Fatal("tenant row has no feedback block")
	}
	return row.Feedback
}

func postFeedback(h http.Handler, body string) *httptest.ResponseRecorder {
	return serveRequest(h, http.MethodPost, "/feedback", body)
}

func TestServeFeedbackDisabled(t *testing.T) {
	h := testHandler(t, serveConfig{})
	if rec := postFeedback(h, `{"question": "q", "chosen": 0}`); rec.Code != http.StatusNotImplemented {
		t.Fatalf("feedback without -feedback: status %d: %s", rec.Code, rec.Body)
	}
}

func TestServeFeedbackValidation(t *testing.T) {
	reg, h := feedbackHandler(t)

	for name, body := range map[string]string{
		"malformed":      `not json`,
		"empty question": `{"question": "", "chosen": 0}`,
		"neither":        `{"question": "how many employees are there"}`,
		"both":           `{"question": "how many employees are there", "chosen": 0, "sql": "SELECT 1"}`,
	} {
		if rec := postFeedback(h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/feedback", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /feedback: status %d", rec.Code)
	}

	// Validation rejections are the client's fault and must be tallied;
	// bad request bodies never reach validation.
	for name, body := range map[string]string{
		"unparseable": `{"question": "q", "sql": "SELEC nope"}`,
		"unbindable":  `{"question": "q", "sql": "SELECT x FROM nosuch"}`,
		"bad index":   `{"question": "how many employees are there", "chosen": 99}`,
	} {
		if rec := postFeedback(h, body); rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422: %s", name, rec.Code, rec.Body)
		}
	}
	fb := feedbackRow(t, reg)
	if got := fb.Rejected; got != 3 {
		t.Errorf("rejected tally = %d, want 3", got)
	}
	if got := fb.Accepted; got != 0 {
		t.Errorf("accepted tally = %d, want 0", got)
	}
	if fb.WAL.LastSeq != 0 {
		t.Error("a rejected submission reached the WAL")
	}
}

func TestServeFeedbackAccept(t *testing.T) {
	reg, h := feedbackHandler(t)

	rec := postFeedback(h, `{"question": "how many people work here", "sql": "SELECT COUNT(*) FROM employee"}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("correction: status %d: %s", rec.Code, rec.Body)
	}
	var resp feedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Accepted || resp.Seq != 1 || resp.Source != feedback.SourceCorrected {
		t.Fatalf("correction response = %+v", resp)
	}

	rec = postFeedback(h, `{"question": "how many employees are there", "chosen": 0}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("chosen: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 2 || resp.Source != feedback.SourceChosen {
		t.Fatalf("chosen response = %+v", resp)
	}

	// Both acks mean both records are durable and replayable.
	hnd, err := reg.Acquire(context.Background(), defaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := hnd.FeedbackLog().Records()
	hnd.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].SQL == "" {
		t.Fatalf("WAL replay = %+v", recs)
	}

	// The tenant's feedback block mirrors the tallies and WAL state.
	req := httptest.NewRequest(http.MethodGet, "/db/default/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", hrec.Code)
	}
	var health struct {
		Feedback *fleet.FeedbackHealth `json:"feedback"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Feedback == nil {
		t.Fatalf("healthz has no feedback block: %s", hrec.Body)
	}
	if health.Feedback.Accepted != 2 || health.Feedback.Rejected != 0 ||
		health.Feedback.WAL.LastSeq != 2 {
		t.Fatalf("healthz feedback = %+v", health.Feedback)
	}
}

func postFleetFeedback(h http.Handler, tenant, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/db/"+tenant+"/feedback", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestServeFleetFeedback drives the fleet endpoint end to end: 501 for
// a fleet without the loop, then accept/reject against an enabled one
// with the per-tenant health block checked.
func TestServeFleetFeedback(t *testing.T) {
	dir := writeSpecDir(t, "acme")

	// A fleet without the loop enabled answers 501.
	bareSrc := &specSource{dir: dir, opts: testServeOpts()}
	_, bareH := newTestFleet(t, bareSrc, fleet.Config{}, serveConfig{}, "acme")
	rec := postFleetFeedback(bareH, "acme", `{"question": "q", "chosen": 0}`)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("fleet feedback disabled: status %d: %s", rec.Code, rec.Body)
	}

	src := &specSource{dir: dir, opts: testServeOpts()}
	reg, h := newTestFleet(t, src, fleet.Config{
		StateDir: t.TempDir(), Feedback: true,
	}, serveConfig{}, "acme")

	rec = postFleetFeedback(h, "acme", `{"question": "fix", "sql": "SELEC nope"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("fleet invalid SQL: status %d: %s", rec.Code, rec.Body)
	}
	rec = postFleetFeedback(h, "acme", `{"question": "how many people work here", "sql": "SELECT COUNT(*) FROM employee"}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("fleet correction: status %d: %s", rec.Code, rec.Body)
	}
	var resp feedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "acme" || resp.Seq != 1 || resp.Source != feedback.SourceCorrected {
		t.Fatalf("fleet response = %+v", resp)
	}

	row, err := reg.TenantHealth("acme")
	if err != nil {
		t.Fatal(err)
	}
	if row.Feedback == nil || row.Feedback.Accepted != 1 || row.Feedback.Rejected != 1 {
		t.Fatalf("tenant feedback health = %+v", row.Feedback)
	}

	rec = postFleetFeedback(h, "nosuch", `{"question": "q", "chosen": 0}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d: %s", rec.Code, rec.Body)
	}
}
