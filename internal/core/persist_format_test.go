package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
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
