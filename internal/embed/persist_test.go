package embed

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"repro/internal/vector"
)

// trainedEncoder is a small encoder whose table training has moved off
// its seeded initial values.
func trainedEncoder(t *testing.T) *Encoder {
	t.Helper()
	e := NewEncoder(Config{Seed: 9, Buckets: 512, Dim: 16})
	corpus := []string{"who is the oldest employee", "Find the name of employee.", "how many shops", "Find the number of shops."}
	e.FitIDF(corpus)
	e.Train([]Triplet{
		{Anchor: corpus[0], Positive: corpus[1], Negative: corpus[3]},
		{Anchor: corpus[2], Positive: corpus[3], Negative: corpus[1]},
	}, TrainConfig{Epochs: 3})
	return e
}

func sameTable(t *testing.T, got, want []vector.Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("table of %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEncoderGobRoundTrip: the table persists as one flat block and
// comes back bit for bit, in one backing array, encoding identically.
func TestEncoderGobRoundTrip(t *testing.T) {
	e := trainedEncoder(t)
	data, err := e.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Encoder
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if back.cfg != e.cfg {
		t.Fatalf("config %+v, want %+v", back.cfg, e.cfg)
	}
	sameTable(t, back.emb, e.emb)
	if cap(back.emb[0]) != back.cfg.Dim {
		t.Fatal("decoded rows are not capped at their dimension")
	}
	q := "which employee is the oldest"
	a, b := e.Encode(q), back.Encode(q)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("decoded encoder embeds %q differently at %d", q, i)
		}
	}
}

// TestEncoderGobReadsRowByRowTables: the row-by-row table of
// version-1 model files still decodes, into one backing array.
func TestEncoderGobReadsRowByRowTables(t *testing.T) {
	e := trainedEncoder(t)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(encoderState{Cfg: e.cfg, Emb: e.emb, IDF: e.idf}); err != nil {
		t.Fatal(err)
	}
	var back Encoder
	if err := back.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	sameTable(t, back.emb, e.emb)
}

// TestEncoderGobRejectsMismatchedTables: a table that disagrees with
// the configuration, or no table at all, is an error — never an
// encoder that indexes outside its table.
func TestEncoderGobRejectsMismatchedTables(t *testing.T) {
	e := trainedEncoder(t)
	block, err := vector.EncodeRows(e.emb)
	if err != nil {
		t.Fatal(err)
	}
	short, err := vector.EncodeRows(e.emb[:10])
	if err != nil {
		t.Fatal(err)
	}
	narrow := vector.Rows(len(e.emb), e.cfg.Dim-1)
	narrowBlock, err := vector.EncodeRows(narrow)
	if err != nil {
		t.Fatal(err)
	}
	zero := e.cfg
	zero.Buckets = 0
	cases := map[string]encoderState{
		"no table":       {Cfg: e.cfg, IDF: e.idf},
		"too few rows":   {Cfg: e.cfg, Table: short},
		"wrong dim":      {Cfg: e.cfg, Table: narrowBlock},
		"truncated":      {Cfg: e.cfg, Table: block[:len(block)-3]},
		"zero buckets":   {Cfg: zero, Table: block},
		"ragged rows":    {Cfg: e.cfg, Emb: append([]vector.Vec{{1}}, e.emb[1:]...)},
		"rows too short": {Cfg: e.cfg, Emb: e.emb[:3]},
	}
	for name, st := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var back Encoder
		if err := back.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
