package gar_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/gar"
)

// TestTranslateContextPublic covers the context-aware public entry
// point: a normal call succeeds un-degraded, an expired context fails
// with the context error, and a generous deadline still succeeds.
func TestTranslateContextPublic(t *testing.T) {
	sys := trainedSystem(t)

	res, err := sys.TranslateContext(context.Background(), "how many employees are there")
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Warnings) != 0 {
		t.Fatalf("clean translation degraded: %+v", res)
	}
	ok, err := gar.ExactMatch(res.SQL, "SELECT COUNT(*) FROM employee")
	if err != nil || !ok {
		t.Fatalf("translation wrong: %s (%v)", res.SQL, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.TranslateContext(ctx, "how many employees are there"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled translate: got %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := sys.TranslateContext(ctx2, "who is the oldest employee"); err != nil {
		t.Fatalf("translate under generous deadline: %v", err)
	}
}

// TestTranslateTopContextPublic: an answer of n is the first n
// candidates of the full answer, with the same SQL and dialect, and n
// <= 0 or beyond the list returns all of them.
func TestTranslateTopContextPublic(t *testing.T) {
	sys := trainedSystem(t)
	ctx := context.Background()
	for _, q := range []string{"how many employees are there", "which employees are older than 30"} {
		full, err := sys.TranslateContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Candidates) < 3 {
			t.Fatalf("%q ranks %d candidates; the test needs 3", q, len(full.Candidates))
		}
		for _, n := range []int{1, 2, 0, -1, len(full.Candidates) + 1} {
			top, err := sys.TranslateTopContext(ctx, q, n)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Candidates
			if n > 0 && n < len(want) {
				want = want[:n]
			}
			if !reflect.DeepEqual(top.Candidates, want) || top.SQL != full.SQL || top.Dialect != full.Dialect ||
				top.Generation != full.Generation || top.Degraded != full.Degraded {
				t.Fatalf("%q n=%d: %+v, want the first %d of %+v", q, n, top, len(want), full)
			}
		}
	}
}

// TestConcurrentTranslateStress hammers TranslateContext from many
// goroutines while another goroutine repeatedly re-Prepares and
// re-Trains the same system. It must pass under `go test -race`: every
// call either succeeds or returns an ordinary error (e.g. "Translate
// before Train" while a re-Prepare is in flight) — never a panic, never
// a torn result.
func TestConcurrentTranslateStress(t *testing.T) {
	sys, err := gar.New(companyDB(), gar.Options{GeneralizeSize: 120, RetrievalK: 8, Seed: 5,
		EncoderEpochs: 4, RerankEpochs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Prepare(samples()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(examples()); err != nil {
		t.Fatal(err)
	}

	questions := []string{
		"how many employees are there",
		"which employees are older than 30",
		"who is the oldest employee",
		"what is the average bonus",
		"list the cities of employees",
	}

	const workers = 8
	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		succeeded atomic.Int64
		errored   atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				res, err := sys.TranslateContext(ctx, questions[(w+i)%len(questions)])
				cancel()
				if err != nil {
					// Re-Prepare in flight or deadline hit: an ordinary
					// error is the contract; anything else is not.
					if !strings.Contains(err.Error(), "Translate before Train") &&
						!errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("unexpected translate error: %v", err)
						return
					}
					errored.Add(1)
					continue
				}
				if res.SQL == "" || len(res.Candidates) == 0 {
					t.Errorf("torn result: %+v", res)
					return
				}
				succeeded.Add(1)
			}
		}(w)
	}

	// The mutator: re-Prepare (invalidating the trained pipeline) and
	// re-Train while translations are in flight.
	for round := 0; round < 3; round++ {
		if err := sys.Prepare(samples()); err != nil {
			t.Error(err)
			break
		}
		if err := sys.Train(examples()); err != nil {
			t.Error(err)
			break
		}
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if succeeded.Load() == 0 {
		t.Fatalf("no translation ever succeeded (errored=%d)", errored.Load())
	}
	t.Logf("stress: %d translations ok, %d clean errors during re-prepare",
		succeeded.Load(), errored.Load())
}
