package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/schema/schematest"
)

// The format pin: testdata/models-v2.gob is fixtureModels as Save wrote
// it before internal/durable existed, so a change that moved the writer
// and the reader together would still fail here.

// refCRC is the test's own CRC-64/ECMA, independent of the package's.
var refCRC = crc64.MakeTable(crc64.ECMA)

// refModelsEnvelope parses a version-2 stream by hand — magic, the
// big-endian payload length, the payload, the big-endian CRC-64/ECMA
// of the payload — and checks that re-framing the payload by hand gives
// the same bytes.
func refModelsEnvelope(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 24 || string(data[:8]) != "GARMDL2\n" {
		t.Fatalf("stream does not start with the version-2 magic: %q", data[:min(8, len(data))])
	}
	n := binary.BigEndian.Uint64(data[8:16])
	if n != uint64(len(data)-24) {
		t.Fatalf("length word %d, payload is %d bytes", n, len(data)-24)
	}
	payload := data[16 : 16+n]
	ref := []byte("GARMDL2\n")
	ref = binary.BigEndian.AppendUint64(ref, n)
	ref = append(ref, payload...)
	ref = binary.BigEndian.AppendUint64(ref, crc64.Checksum(payload, refCRC))
	if !bytes.Equal(ref, data) {
		t.Fatal("stream differs from the reference framing")
	}
}

// sameModels compares models by what they compute: embeddings bit for
// bit and re-rank scores exactly. Gob payloads are compared decoded
// because gob numbers types per process.
func sameModels(t *testing.T, got, want *core.Models) {
	t.Helper()
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

// TestModelsFormatFixtureDecodes: the version-2 stream an earlier build
// wrote loads as the models it was written from, and is itself the
// reference framing.
func TestModelsFormatFixtureDecodes(t *testing.T) {
	data, err := os.ReadFile("testdata/models-v2.gob")
	if err != nil {
		t.Fatal(err)
	}
	refModelsEnvelope(t, data)
	got, err := core.LoadModels(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sameModels(t, got, fixtureModels(t))
}

// TestModelsFormatWriterMatchesReference: Save and SaveFile both write
// the reference framing around a payload that decodes to the same
// models.
func TestModelsFormatWriterMatchesReference(t *testing.T) {
	want := fixtureModels(t)
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	refModelsEnvelope(t, buf.Bytes())

	dir := t.TempDir()
	path := filepath.Join(dir, "models.gob")
	if err := want.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refModelsEnvelope(t, data)
	got, err := core.LoadModels(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sameModels(t, got, want)
	if des, _ := os.ReadDir(dir); len(des) != 1 {
		t.Fatalf("SaveFile left %d entries, want just the models file", len(des))
	}
}

// employeeModelsDigest is modelsDigest of the models TrainModels fits
// on the employee suite (TestTrainModelsEmployeeDigest), as the build that
// still assembled TrainModels' list pipeline by hand wrote them.
const employeeModelsDigest = "44a4f2e19aaca1be01c01a1ca82e3031f7787d4019cf82005bf65e1225fd41f6"

// gobRaw captures a GobEncoder field's bytes undecoded.
type gobRaw []byte

func (r *gobRaw) GobDecode(data []byte) error {
	*r = append((*r)[:0], data...)
	return nil
}

// gobDecode decodes data into out or fails the test.
func gobDecode(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// modelsDigest hashes every value a saved models stream carries, field
// by field in a fixed order: maps by sorted key, floats by their bits,
// the encoder's embedding table as its flat block. Gob numbers types
// per process and writes maps in iteration order, so two saves of the
// same models differ as raw bytes; their digests do not.
func modelsDigest(t *testing.T, m *core.Models) string {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	refModelsEnvelope(t, data)
	var saved struct {
		Encoder   gobRaw
		HasRerank bool
		RerankNet gobRaw
		RerankIDF gobRaw
	}
	gobDecode(t, data[16:len(data)-8], &saved)
	var enc struct {
		Cfg   embed.Config
		Table []byte
		IDF   gobRaw
	}
	gobDecode(t, saved.Encoder, &enc)
	var net struct {
		Sizes           []int
		Weights, MW, VW [][][]float64
		Biases, MB, VB  [][]float64
		Step            int
	}
	gobDecode(t, saved.RerankNet, &net)

	h := sha256.New()
	fmt.Fprintf(h, "%+v rerank=%v sizes=%v step=%d\n", enc.Cfg, saved.HasRerank, net.Sizes, net.Step)
	h.Write(enc.Table)
	for _, idf := range []gobRaw{enc.IDF, saved.RerankIDF} {
		var st struct {
			Docs   int
			Counts map[string]int
		}
		gobDecode(t, idf, &st)
		fmt.Fprintf(h, "docs=%d\n", st.Docs)
		keys := make([]string, 0, len(st.Counts))
		for k := range st.Counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%q=%d\n", k, st.Counts[k])
		}
	}
	floats := func(xs []float64) {
		for _, x := range xs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	for _, layers := range [][][][]float64{net.Weights, net.MW, net.VW} {
		for _, rows := range layers {
			for _, row := range rows {
				floats(row)
			}
		}
	}
	for _, layers := range [][][]float64{net.Biases, net.MB, net.VB} {
		for _, row := range layers {
			floats(row)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainModelsEmployeeDigest: the models TrainModels fits on the
// employee suite save the same values, bit for bit, as the committed
// digest records — the encoder's table and IDF statistics, and the
// re-ranker's network and optimizer state, which only the training
// lists shape. The digest pins amd64 float arithmetic: an architecture
// that fuses multiply-adds trains other bits.
func TestTrainModelsEmployeeDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the digest was taken on amd64, not %s", runtime.GOARCH)
	}
	sys := core.New(schematest.Employee(), core.Options{
		GeneralizeSize: 300, RetrievalK: 10, EncoderEpochs: 12, RerankEpochs: 40, Seed: 42,
	})
	sys.Prepare(employeeSamples())
	m, err := core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: employeeExamples()}}, sys.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := modelsDigest(t, m); got != employeeModelsDigest {
		t.Fatalf("employee models digest %s, want %s", got, employeeModelsDigest)
	}
}
