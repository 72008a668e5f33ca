package core_test

import (
	"context"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ltr"
)

// TestColdTranslateAllocs is the allocation ceiling of a translation
// that misses the cache, at the paper's k = 100 over a SPIDER-like pool
// of about a thousand candidates, for two calls. The full list
// (TranslateContext): the per-snapshot feature table, the single value
// extraction per question, the allocation-free forward pass and copying
// only the candidates that have a placeholder to fill keep it near 530
// allocations. Its ceiling of 800 trips at three more allocations per
// retrieved candidate: a forward pass that allocates its activations
// again reads about 950, a fill that copies every candidate about
// 1,700. The server's call (TranslateTopContext for 5, each returned
// candidate printed as gar does) fills and prints five candidates and
// reads about 230; its ceiling of 400 trips when the translation fills
// every filtered candidate again (about 560).
func TestColdTranslateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a SPIDER-like system")
	}
	bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, ValDBs: 1, TrainPerDB: 10, ValPerDB: 40, Seed: 5})
	db := datasets.DBNames(bench.Val)[0]
	bundle := bench.Bundle(db)
	opts := core.Options{GeneralizeSize: 1500, RetrievalK: 100, Seed: 5, EncoderEpochs: 2, RerankEpochs: 2, NoCache: true, Workers: 1}
	sys := core.New(bundle.Schema, opts)
	sys.SetContent(bundle.Content)
	var examples []ltr.Example
	for _, it := range bench.Val {
		if it.DB == db {
			examples = append(examples, ltr.Example{NL: it.NL, Gold: it.Gold})
		}
	}
	sys.Prepare(datasets.GoldQueries(bench.Val, db))
	if err := sys.Train(examples[:20]); err != nil {
		t.Fatal(err)
	}
	if sys.PoolSize() < 500 {
		t.Fatalf("pool of %d candidates is too small to measure", sys.PoolSize())
	}
	ctx := context.Background()
	var printed string
	for _, tc := range []struct {
		name    string
		ceiling float64
		call    func(nl string) error
	}{
		{"full", 800, func(nl string) error {
			_, err := sys.TranslateContext(ctx, nl)
			return err
		}},
		{"served", 400, func(nl string) error {
			tr, err := sys.TranslateTopContext(ctx, nl, 5)
			if err != nil {
				return err
			}
			for _, c := range tr.Ranked {
				printed = c.SQL.String()
			}
			return nil
		}},
	} {
		var total float64
		questions := examples[20:30]
		for _, ex := range questions {
			total += testing.AllocsPerRun(3, func() {
				if err := tc.call(ex.NL); err != nil {
					t.Fatal(err)
				}
			})
		}
		perCall := total / float64(len(questions))
		t.Logf("%s: pool %d, k %d: %.0f allocs per cold translation", tc.name, sys.PoolSize(), opts.RetrievalK, perCall)
		if perCall > tc.ceiling {
			t.Errorf("%s: %.0f allocs per cold translation, ceiling %.0f", tc.name, perCall, tc.ceiling)
		}
	}
	if printed == "" {
		t.Error("the served call printed nothing")
	}
}

// TestRestoreAllocs is the allocation ceiling of a checkpoint restore
// of the employee snapshot (a few dozen candidates, about 3k
// allocations). The float tables — the encoder's 8,192 × 64 embedding
// table and one vector per candidate — decode from flat blocks into
// one backing array each; a decoder that allocated per row, as gob
// does, would add over 8,000 allocations and trip the ceiling.
func TestRestoreAllocs(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	target := restoreTarget()
	allocs := testing.AllocsPerRun(5, func() {
		if err := target.RestoreCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("pool %d: %.0f allocs per restore", target.PoolSize(), allocs)
	if allocs > 6000 {
		t.Errorf("%.0f allocs per restore, ceiling 6000", allocs)
	}
}
