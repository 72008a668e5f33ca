package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestFaultMatrix exercises {error, panic, deadline-exceeded} at each of
// the three stage boundaries {retrieval, rerank, postprocess} and
// asserts the documented degradation contract: no panic ever escapes,
// retrieval failures are fatal, re-ranking failures fall back to
// retrieval order, and post-processing failures fall back to masked
// SQL. Run under -race this also checks the recover boundaries are
// data-race free.
func TestFaultMatrix(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	const q = "which employees are older than 30"

	clean, err := sys.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded || len(clean.Warnings) != 0 {
		t.Fatalf("clean translation degraded: %+v", clean)
	}
	if !strings.Contains(clean.Top.SQL.String(), "30") {
		t.Fatalf("clean translation did not fill the literal: %s", clean.Top.SQL)
	}
	cleanSet := sqlSet(clean.Ranked)

	stages := []faults.Stage{faults.Retrieval, faults.Rerank, faults.Postprocess}
	kinds := []string{"error", "panic", "deadline"}
	injectedErr := errors.New("injected failure")

	for _, stage := range stages {
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", stage, kind), func(t *testing.T) {
				inj := faults.NewInjector(1)
				ctx := context.Background()
				switch kind {
				case "error":
					inj.Fail(stage, injectedErr)
				case "panic":
					inj.Panic(stage, "kaboom")
				case "deadline":
					inj.Delay(stage, time.Hour)
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
					defer cancel()
				}
				sys.SetFaultInjector(inj)
				defer sys.SetFaultInjector(nil)

				tr, err := sys.TranslateContext(ctx, q)
				if inj.Fired(stage) == 0 {
					t.Fatal("fault plan never fired")
				}

				if stage == faults.Retrieval {
					// Retrieval is the only fatal stage.
					if err == nil {
						t.Fatal("retrieval failure was not fatal")
					}
					se, ok := core.AsStageError(err)
					if !ok || se.Stage != core.StageRetrieval {
						t.Fatalf("error is not a retrieval StageError: %v", err)
					}
					switch kind {
					case "error":
						if !errors.Is(err, injectedErr) {
							t.Fatalf("injected error not wrapped: %v", err)
						}
					case "panic":
						var pe *core.PanicError
						if !errors.As(err, &pe) {
							t.Fatalf("recovered panic not surfaced as PanicError: %v", err)
						}
					case "deadline":
						if !errors.Is(err, context.DeadlineExceeded) {
							t.Fatalf("deadline not wrapped: %v", err)
						}
					}
					return
				}

				// Rerank and postprocess failures degrade gracefully.
				if err != nil {
					t.Fatalf("%s failure was fatal: %v", stage, err)
				}
				if !tr.Degraded {
					t.Fatal("result not flagged Degraded")
				}
				if len(tr.Warnings) == 0 || !strings.Contains(strings.Join(tr.Warnings, "; "), string(stage)) {
					t.Fatalf("warnings do not name the failed stage: %v", tr.Warnings)
				}
				if tr.Top == nil || len(tr.Ranked) == 0 {
					t.Fatal("degraded result carries no candidates")
				}

				if stage == faults.Rerank && kind != "deadline" {
					// Fallback is the retrieval-order candidate list: same
					// candidates as the clean run (only the order may
					// differ), with retrieval scores non-increasing.
					if got := sqlSet(tr.Ranked); !sameSet(got, cleanSet) {
						t.Fatalf("degraded candidate set differs from clean run:\n got %v\nwant %v", got, cleanSet)
					}
					for i := 1; i < len(tr.Ranked); i++ {
						if tr.Ranked[i].Score > tr.Ranked[i-1].Score {
							t.Fatal("fallback is not in retrieval score order")
						}
					}
				}
				if stage == faults.Postprocess {
					// Fallback returns the ranked SQL with placeholders
					// still masked: no literal is filled from the NL.
					masked := false
					for _, c := range tr.Ranked {
						if strings.Contains(c.SQL.String(), "'value'") {
							masked = true
						}
						if strings.Contains(c.SQL.String(), "30") {
							t.Fatalf("degraded postprocess filled a literal: %s", c.SQL)
						}
					}
					if !masked {
						t.Fatal("no masked placeholder in degraded candidates")
					}
				}
			})
		}
	}
}

// TestFaultMatrixExecGuide extends the matrix to the fourth boundary:
// a fault in the execution-guided stage is never fatal — the result is
// flagged Degraded, the warning names the stage, no verdicts are
// attached, and the candidates fall back to the pre-execution LTR
// order, byte-identical to what an ExecGuide-off system produces from
// the same seed.
func TestFaultMatrixExecGuide(t *testing.T) {
	sys := trainedSystem(t, core.Options{ExecGuide: true})
	ref := trainedSystem(t, core.Options{})
	const q = "which employees are older than 30"

	clean, err := sys.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded || len(clean.Verdicts) == 0 {
		t.Fatalf("clean exec-guided translation unhealthy: degraded=%v verdicts=%d",
			clean.Degraded, len(clean.Verdicts))
	}
	refClean, err := ref.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := renderOrder(refClean.Ranked)

	injectedErr := errors.New("injected failure")
	for _, kind := range []string{"error", "panic", "deadline"} {
		t.Run(kind, func(t *testing.T) {
			inj := faults.NewInjector(1)
			ctx := context.Background()
			switch kind {
			case "error":
				inj.Fail(faults.ExecGuide, injectedErr)
			case "panic":
				inj.Panic(faults.ExecGuide, "kaboom")
			case "deadline":
				inj.Delay(faults.ExecGuide, time.Hour)
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 30*time.Millisecond)
				defer cancel()
			}
			sys.SetFaultInjector(inj)
			defer sys.SetFaultInjector(nil)

			tr, err := sys.TranslateContext(ctx, q)
			if inj.Fired(faults.ExecGuide) == 0 {
				t.Fatal("fault plan never fired")
			}
			if err != nil {
				t.Fatalf("execguide failure was fatal: %v", err)
			}
			if !tr.Degraded {
				t.Fatal("result not flagged Degraded")
			}
			if !strings.Contains(strings.Join(tr.Warnings, "; "), string(faults.ExecGuide)) {
				t.Fatalf("warnings do not name the execguide stage: %v", tr.Warnings)
			}
			if len(tr.Verdicts) != 0 {
				t.Fatalf("degraded execguide result still carries verdicts: %v", tr.Verdicts)
			}
			if kind == "deadline" {
				// The whole-translate deadline may cut later work short;
				// candidate-order equality is only guaranteed for the
				// stage-local failures.
				return
			}
			if got := renderOrder(tr.Ranked); got != wantOrder {
				t.Fatalf("degraded candidates are not the pre-execution LTR order:\n got %s\nwant %s", got, wantOrder)
			}
		})
	}
}

func renderOrder(cands []core.Candidate) string {
	var sb strings.Builder
	for _, c := range cands {
		sb.WriteString(c.SQL.String())
		sb.WriteString(" | ")
	}
	return sb.String()
}

// TestTranslateContextCancelled asserts an already-cancelled context is
// fatal before any stage runs.
func TestTranslateContextCancelled(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.TranslateContext(ctx, "how many employees are there")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	se, ok := core.AsStageError(err)
	if !ok || se.Stage != core.StageRetrieval {
		t.Fatalf("cancellation not attributed to retrieval: %v", err)
	}
}

func sqlSet(cands []core.Candidate) map[string]bool {
	out := make(map[string]bool, len(cands))
	for _, c := range cands {
		out[c.SQL.String()] = true
	}
	return out
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
