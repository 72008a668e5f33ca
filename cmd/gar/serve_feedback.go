// The feedback endpoint of the online learning loop:
//
//	POST /db/{name}/feedback  {"question": "...", "chosen": 0}
//	POST /db/{name}/feedback  {"question": "...", "sql": "SELECT ..."}
//	POST /feedback            (the same for the tenant named default)
//
// A submission either endorses one of the candidates a /translate
// response offered ("chosen", an index into its candidates array) or
// supplies a corrected SQL text. Corrections are validated — re-parsed
// and re-bound against the schema — before anything is written;
// invalid SQL is rejected with 422 and never reaches disk. Accepted
// records are appended to the durable feedback WAL (fsynced before the
// 202 acknowledgement) and wake the background trainer; see
// internal/feedback and gar.Trainer. The endpoint answers 501 unless
// the server runs with -statedir and -feedback.
package main

import (
	"context"
	"net/http"
	"strconv"

	"repro/internal/feedback"
	"repro/internal/fleet"
)

type feedbackRequest struct {
	Question string `json:"question"`
	// Chosen endorses one candidate of a prior /translate response for
	// the same question: its index in the candidates array.
	Chosen *int `json:"chosen,omitempty"`
	// SQL supplies a corrected query instead. Exactly one of Chosen and
	// SQL must be set.
	SQL string `json:"sql,omitempty"`
}

type feedbackResponse struct {
	Tenant   string `json:"tenant"`
	Accepted bool   `json:"accepted"`
	Seq      uint64 `json:"seq"`
	Source   string `json:"source"`
}

// handleFeedback is POST /db/{name}/feedback and its /feedback alias.
func (s *handler) handleFeedback(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req feedbackRequest
	if !decodeRequest(w, r, s.cfg.MaxBody, &req, &req.Question) {
		return
	}
	if (req.Chosen == nil) == (req.SQL == "") {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "provide exactly one of chosen or sql"})
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
	if h.FeedbackLog() == nil || h.Trainer() == nil {
		writeJSON(w, http.StatusNotImplemented, errorJSON{Error: "feedback not enabled (start with -statedir and -feedback)"})
		return
	}
	if !h.Sys().Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant " + name + ": no snapshot published"})
		return
	}
	status, body := acceptFeedback(ctx, h, req)
	writeJSON(w, status, body)
}

// acceptFeedback validates one decoded submission against the tenant's
// serving system and, if it survives, durably records it and wakes the
// tenant's trainer. It reports the HTTP status and body, and tallies
// the outcome in the tenant's health row: a rejection only for a
// submission refused at validation (transport and storage errors are
// the server's fault, not the client's).
func acceptFeedback(ctx context.Context, h *fleet.Handle, req feedbackRequest) (int, any) {
	sys := h.Sys()
	rec := feedback.Record{
		Question:   req.Question,
		Generation: sys.Generation(),
	}
	if req.Chosen != nil {
		// Endorsing a candidate: re-translate the question on the live
		// snapshot and index into its candidates, so the endorsed SQL is
		// exactly what the system offered.
		res, err := sys.TranslateContext(ctx, req.Question)
		if err != nil {
			return http.StatusInternalServerError, errorJSON{Error: "translating question: " + err.Error()}
		}
		if *req.Chosen < 0 || *req.Chosen >= len(res.Candidates) {
			h.CountFeedback(false)
			return http.StatusUnprocessableEntity,
				errorJSON{Error: "chosen index out of range (the question has " +
					strconv.Itoa(len(res.Candidates)) + " candidates)"}
		}
		rec.SQL = res.Candidates[*req.Chosen].SQL
		rec.Source = feedback.SourceChosen
	} else {
		// A correction: re-parse and re-bind against the schema before
		// anything touches disk.
		if err := sys.ValidateSQL(req.SQL); err != nil {
			h.CountFeedback(false)
			return http.StatusUnprocessableEntity, errorJSON{Error: err.Error()}
		}
		rec.SQL = req.SQL
		rec.Source = feedback.SourceCorrected
	}

	seq, err := h.FeedbackLog().Append(rec)
	if err != nil {
		// Not acknowledged: the record is not durable, the client should
		// retry. No sequence number was consumed.
		return http.StatusInternalServerError, errorJSON{Error: "feedback not recorded: " + err.Error()}
	}
	rec.Seq = seq
	h.Trainer().ObserveFeedback(ctx, rec)
	h.Trainer().Notify()
	h.CountFeedback(true)
	return http.StatusAccepted, feedbackResponse{
		Tenant:   h.Tenant(),
		Accepted: true,
		Seq:      seq,
		Source:   rec.Source,
	}
}
