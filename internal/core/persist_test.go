package core_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/rerank"
	"repro/internal/text"
)

// fixtureCorpus and fixtureModels reproduce testdata/models-v1.gob:
// untrained models, deterministic from their seeds, which the
// version-1 Save (magic GARMDL1, the encoder table gob row by row)
// wrote to that file.
var fixtureCorpus = []string{
	"who is the oldest employee", "Find the name of employee.",
	"how many employees are there", "Find the number of employees.",
}

func fixtureModels(t *testing.T) *core.Models {
	t.Helper()
	enc := embed.NewEncoder(embed.Config{Seed: 11, Buckets: 64, Dim: 8})
	enc.FitIDF(fixtureCorpus)
	rr, err := rerank.New(&rerank.Extractor{IDF: text.NewIDF(fixtureCorpus), Encoder: enc}, 12)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Models{Encoder: enc, Reranker: rr}
}

// TestLoadModelsVersions: a models file an older build wrote (version
// 1) still loads — `gar -loadmodels` survives the format change — and
// holds exactly the models it was written from; Save writes version 2,
// which round-trips, and any truncation of it is corruption.
func TestLoadModelsVersions(t *testing.T) {
	data, err := os.ReadFile("testdata/models-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("GARMDL1\n")) {
		t.Fatal("fixture is not a version-1 stream")
	}
	old, err := core.LoadModels(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := fixtureModels(t)
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("GARMDL2\n")) {
		t.Fatalf("Save wrote magic %q", buf.Bytes()[:8])
	}
	current, err := core.LoadModels(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*core.Models{old, current} {
		for _, s := range append(fixtureCorpus, "list every shop") {
			a, b := got.Encoder.Encode(s), want.Encoder.Encode(s)
			if len(a) != len(b) {
				t.Fatalf("dimension %d, want %d", len(a), len(b))
			}
			for i := range b {
				if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
					t.Fatalf("embedding of %q differs at %d: %v, want %v", s, i, a[i], b[i])
				}
			}
			if g, w := got.Reranker.Score(s, fixtureCorpus[1]), want.Reranker.Score(s, fixtureCorpus[1]); g != w {
				t.Fatalf("re-rank score of %q is %v, want %v", s, g, w)
			}
		}
	}

	v2 := buf.Bytes()
	for _, n := range []int{0, 8, 24, len(v2) / 2, len(v2) - 9, len(v2) - 1} {
		if _, err := core.LoadModels(bytes.NewReader(v2[:n])); !errors.Is(err, core.ErrCorruptModels) {
			t.Errorf("version 2 truncated to %d of %d bytes: err = %v, want ErrCorruptModels", n, len(v2), err)
		}
	}
}
