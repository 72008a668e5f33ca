package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
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
// fitted on the same system deploys the embeddings training computed,
// and serves exactly what a deployment that encodes the pool serves —
// the same embeddings, pool, charge, degradation and answers — both
// unbudgeted and under a budget that truncates the embeddings, and
// after the models' encoder was replaced, when the training embeddings
// no longer apply.
func TestUseModelsDeploysTrainedVecs(t *testing.T) {
	opts := core.Options{GeneralizeSize: 300, RetrievalK: 10, EncoderEpochs: 4, RerankEpochs: 6, Seed: 42, NoCache: true}
	probed := opts
	probed.MemBudget = 256 << 20
	probe := core.New(schematest.Employee(), probed)
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
			o := opts
			o.MemBudget = tc.budget
			sys, twin := core.New(schematest.Employee(), o), core.New(schematest.Employee(), o)
			sys.Prepare(employeeSamples())
			twin.Prepare(employeeSamples())
			m, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, o)
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
			reused := &core.ServingPipeline(sys).DialVecs[0][0] == &trained[0][0]
			if reused == tc.encoder {
				t.Fatalf("deployment reused the training embeddings: %v, want %v", reused, !tc.encoder)
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
