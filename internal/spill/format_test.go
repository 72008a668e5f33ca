package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"testing"
)

// The format pin: testdata/three-frames.spill was written by the build
// before internal/durable existed, so a change that moved the writer
// and the reader together would still fail here.

var fixturePayloads = []string{"alpha", "", "gamma with some longer text"}

// refCRC is the test's own CRC-64/ECMA, independent of the package's.
var refCRC = crc64.MakeTable(crc64.ECMA)

// refRun is the run layout written out by hand: the magic, then per
// payload a big-endian u32 length, its big-endian CRC-64/ECMA and the
// payload itself.
func refRun(payloads []string) []byte {
	out := []byte("GARSPIL1")
	for _, p := range payloads {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = binary.BigEndian.AppendUint64(out, crc64.Checksum([]byte(p), refCRC))
		out = append(out, p...)
	}
	return out
}

// TestFormatFixtureDecodes: the run an earlier build wrote reads back
// frame for frame, and is itself the reference layout.
func TestFormatFixtureDecodes(t *testing.T) {
	const path = "testdata/three-frames.spill"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refRun(fixturePayloads); !bytes.Equal(data, ref) {
		t.Fatalf("fixture differs from the reference encoding:\n got %x\nwant %x", data, ref)
	}
	r, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range fixturePayloads {
		got, err := r.Next()
		if err != nil || string(got) != want {
			t.Fatalf("frame %d = %q, %v; want %q", i, got, err, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) || r.Torn() {
		t.Fatalf("after the last frame: err %v, torn %v; want a clean EOF", err, r.Torn())
	}
}

// TestFormatWriterMatchesReference: a run written now is byte for byte
// the fixture and the reference layout (spill payloads are raw bytes,
// so byte equality is the right test).
func TestFormatWriterMatchesReference(t *testing.T) {
	path := writeRun(t, t.TempDir(), fixturePayloads...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refRun(fixturePayloads); !bytes.Equal(data, ref) {
		t.Fatalf("run differs from the reference encoding:\n got %x\nwant %x", data, ref)
	}
}
