package feedback

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The format pin: testdata/seg-00000000000000000001.fwal was written by
// the build before internal/durable existed, so a change that moved the
// writer and the reader together would still fail here.

const fixtureSegment = "seg-00000000000000000001.fwal"

// fixtureRecords are the records the fixture segment holds, Seq
// included.
func fixtureRecords() []Record {
	return []Record{
		{Seq: 1, TimeUnix: 1_700_000_001, Question: "how many employees are there", SQL: "SELECT COUNT(*) FROM employee", Source: SourceChosen, Generation: 3},
		{Seq: 2, TimeUnix: 1_700_000_002, Question: "who is the oldest employee", SQL: "SELECT name FROM employee ORDER BY age DESC LIMIT 1", Source: SourceCorrected, Generation: 3},
		{Seq: 3, TimeUnix: 1_700_000_003, Question: "list every city", SQL: "SELECT city FROM employee", Source: SourceChosen, Generation: 4},
	}
}

// refCRC is the test's own CRC-64/ECMA, independent of the package's.
var refCRC = crc64.MakeTable(crc64.ECMA)

// refSegment parses a segment by hand: the magic, then frames of a
// big-endian u32 length, the big-endian CRC-64/ECMA of the payload and
// the payload. It checks that re-framing the payloads by hand gives the
// same bytes and returns the records the payloads decode to. Gob
// payloads are compared decoded: gob numbers types per process, so the
// same record can encode to different bytes.
func refSegment(t *testing.T, data []byte) []Record {
	t.Helper()
	if len(data) < 8 || string(data[:8]) != "GARFBL01" {
		t.Fatalf("segment does not start with the magic: %q", data[:min(8, len(data))])
	}
	ref := []byte("GARFBL01")
	var recs []Record
	for off := 8; off < len(data); {
		if len(data)-off < 12 {
			t.Fatalf("trailing %d bytes at offset %d", len(data)-off, off)
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		if n > len(data)-off-12 {
			t.Fatalf("frame at offset %d claims %d bytes past the end", off, n)
		}
		payload := data[off+12 : off+12+n]
		ref = binary.BigEndian.AppendUint32(ref, uint32(n))
		ref = binary.BigEndian.AppendUint64(ref, crc64.Checksum(payload, refCRC))
		ref = append(ref, payload...)
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			t.Fatalf("frame at offset %d: %v", off, err)
		}
		recs = append(recs, rec)
		off += 12 + n
	}
	if !bytes.Equal(ref, data) {
		t.Fatalf("segment differs from the reference framing:\n got %x\nwant %x", data, ref)
	}
	return recs
}

// TestFormatFixtureDecodes: the segment an earlier build wrote opens as
// a log holding exactly its records, and is itself the reference
// layout.
func TestFormatFixtureDecodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", fixtureSegment))
	if err != nil {
		t.Fatal(err)
	}
	if got := refSegment(t, data); !reflect.DeepEqual(got, fixtureRecords()) {
		t.Fatalf("fixture payloads decode to %+v", got)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fixtureSegment), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fixtureRecords()) {
		t.Fatalf("replayed %+v, want %+v", got, fixtureRecords())
	}
	if st := l.Stats(); st.Records != 3 || st.LastSeq != 3 || st.CorruptSkipped+st.TornTruncated+st.SealedSegments != 0 {
		t.Fatalf("stats after opening the fixture: %+v", st)
	}
	reps, err := Inspect(dir)
	if err != nil || len(reps) != 1 || reps[0].Records != 3 || reps[0].FirstSeq != 1 || reps[0].LastSeq != 3 {
		t.Fatalf("Inspect = %+v, %v", reps, err)
	}
}

// TestFormatWriterMatchesReference: appends made now (the segment
// creation and one in-place frame per record) and a Compact rewrite
// both produce the reference framing around the same records.
func TestFormatWriterMatchesReference(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range fixtureRecords() {
		rec.Seq = 0
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, fixtureSegment))
	if err != nil {
		t.Fatal(err)
	}
	if got := refSegment(t, data); !reflect.DeepEqual(got, fixtureRecords()) {
		t.Fatalf("appended segment decodes to %+v", got)
	}

	if _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "seg-00000000000000000002.fwal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := refSegment(t, data); !reflect.DeepEqual(got, fixtureRecords()) {
		t.Fatalf("compacted segment decodes to %+v", got)
	}
}
