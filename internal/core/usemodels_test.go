package core_test

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/schema/schematest"
)

// reloaded returns m as Save and LoadModels hand it back: the same
// encoder and re-ranker, without the pool embeddings TrainModels
// computed, so deploying it encodes the pool.
func reloaded(t *testing.T, m *core.Models) *core.Models {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := core.LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// deployedVecs returns the dialect embeddings a system serves, as its
// checkpoint stores them.
func deployedVecs(t *testing.T, sys *core.System) []byte {
	t.Helper()
	_, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		if s.Name == core.SectionVecs {
			return s.Data
		}
	}
	t.Fatal("checkpoint has no vecs section")
	return nil
}

// TestUseModelsDeploysTrainedVecs: UseModels of the models TrainModels
// fitted on the same system deploys the embeddings and the feature
// table training computed, and serves exactly what a deployment that
// encodes the pool serves — the same embeddings, pool, charge,
// degradation and answers — both unbudgeted, where the cold build's one
// table is training's, and under a budget that truncates the
// embeddings, where the deployed table covers the kept candidates and
// ranks them as a fresh table over them would; and after the models'
// encoder was replaced, when the training embeddings no longer apply.
func TestUseModelsDeploysTrainedVecs(t *testing.T) {
	opts := core.Options{GeneralizeSize: 300, RetrievalK: 10, EncoderEpochs: 4, RerankEpochs: 6, Seed: 42, NoCache: true}
	probe := core.New(schematest.Employee(), opts)
	probe.SetResources(memgov.New("system", 256<<20))
	probe.Prepare(employeeSamples())
	poolBytes := probe.MemStats().SnapshotBytes
	if err := probe.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	full := probe.MemStats().SnapshotBytes
	other, err := core.TrainModels([]core.TrainingSet{{Sys: probe, Examples: employeeExamples()[:3]}}, opts)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		budget    int64
		encoder   bool // replace the models as a candidate mutation may
		truncated bool
	}{
		{"unbudgeted", 0, false, false},
		{"truncating budget", poolBytes + (full-poolBytes)/2, false, true},
		{"replaced encoder", 0, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, twin := core.New(schematest.Employee(), opts), core.New(schematest.Employee(), opts)
			if tc.budget > 0 {
				sys.SetResources(memgov.New("system", tc.budget))
				twin.SetResources(memgov.New("system", tc.budget))
			}
			sys.Prepare(employeeSamples())
			twin.Prepare(employeeSamples())
			m, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.encoder {
				m.Encoder, m.Reranker = other.Encoder, nil
			}
			if err := sys.UseModels(m); err != nil {
				t.Fatal(err)
			}
			trained := core.TrainedVecs(m)
			pipe := core.ServingPipeline(sys)
			reused := &pipe.DialVecs[0][0] == &trained[0][0]
			if reused == tc.encoder {
				t.Fatalf("deployment reused the training embeddings: %v, want %v", reused, !tc.encoder)
			}
			switch {
			case tc.encoder:
				if pipe.Table != nil {
					t.Fatal("a pipeline without a re-ranker deployed a feature table")
				}
			case !tc.truncated:
				if pipe.Table == nil || pipe.Table != core.TrainedTable(m) {
					t.Fatal("deployment built a second feature table over the pool training used")
				}
			default:
				if pipe.Table == nil || pipe.Table.Len() != sys.PoolSize() {
					t.Fatalf("deployed table does not cover exactly the %d kept candidates", sys.PoolSize())
				}
				fresh := *pipe
				fresh.Table = ltr.PoolTable(pipe.Pool)
				for _, ex := range employeeExamples() {
					hits, err := pipe.RetrieveContext(context.Background(), ex.NL, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pipe.RerankVecContext(context.Background(), ex.NL, nil, hits)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.RerankVecContext(context.Background(), ex.NL, nil, hits)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%q: deployed table ranks %+v, a fresh table over the kept candidates %+v", ex.NL, got, want)
					}
				}
			}
			if err := twin.UseModels(reloaded(t, m)); err != nil {
				t.Fatal(err)
			}
			got, want := sys.MemStats(), twin.MemStats()
			if (got.Budget == nil) != (want.Budget == nil) || got.Budget != nil && *got.Budget != *want.Budget {
				t.Fatalf("budget %+v, encoding the pool leaves %+v", got.Budget, want.Budget)
			}
			got.Budget, want.Budget = nil, nil
			if got.Degraded != tc.truncated || got != want || sys.PoolSize() != twin.PoolSize() {
				t.Fatalf("deployed %d candidates, %+v; encoding the pool deploys %d, %+v (want degraded=%v)",
					sys.PoolSize(), got, twin.PoolSize(), want, tc.truncated)
			}
			if !bytes.Equal(deployedVecs(t, sys), deployedVecs(t, twin)) {
				t.Fatal("deployed embeddings differ from the pool encoded under the models' encoder")
			}
			for _, ex := range employeeExamples() {
				a, err := sys.Translate(ex.NL)
				if err != nil {
					t.Fatal(err)
				}
				b, err := twin.Translate(ex.NL)
				if err != nil {
					t.Fatal(err)
				}
				if renderTranslation(a) != renderTranslation(b) {
					t.Fatalf("%q answers\n%s\nencoding the pool answers\n%s", ex.NL, renderTranslation(a), renderTranslation(b))
				}
			}
		})
	}
}
