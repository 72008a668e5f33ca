package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The format pins: testdata/envelope-v2.ckpt was written by the build
// before internal/durable existed, so a change that moved the writer
// and the reader together would still fail here. Format 3 kept the
// envelope layout and changed only what the sections mean:
// testdata/envelope-v3.ckpt is the same fixture under a version-3
// manifest, written by refEnvelope below, not by Encode.

// fixtureManifest and fixtureSections are what the envelope fixtures
// hold.
func fixtureManifest() Manifest {
	return Manifest{Generation: 7, Database: "employee", CreatedUnix: 1_700_000_007}
}

func fixtureSections() []Section {
	return []Section{
		{Name: "pool", Data: []byte("SELECT name FROM employee")},
		{Name: "vecs", Data: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		{Name: "models", Data: []byte("gamma")},
	}
}

// refCRC is the test's own CRC-64/ECMA, independent of the package's.
var refCRC = crc64.MakeTable(crc64.ECMA)

// refEnvelope is the envelope layout written out by hand: magic, the
// big-endian manifest length, the manifest, its big-endian CRC-64/ECMA,
// then the section payloads verbatim.
func refEnvelope(mbytes []byte, sections []Section) []byte {
	out := []byte("GARCKPT1")
	out = binary.BigEndian.AppendUint64(out, uint64(len(mbytes)))
	out = append(out, mbytes...)
	out = binary.BigEndian.AppendUint64(out, crc64.Checksum(mbytes, refCRC))
	for _, s := range sections {
		out = append(out, s.Data...)
	}
	return out
}

// wantManifest is the manifest a build of the given format version
// derives for the fixture.
func wantManifest(version int) Manifest {
	m := fixtureManifest()
	m.FormatVersion = version
	for _, s := range fixtureSections() {
		m.Sections = append(m.Sections, SectionInfo{Name: s.Name, Length: int64(len(s.Data)), CRC: crc64.Checksum(s.Data, refCRC)})
	}
	return m
}

// checkEnvelope parses data by hand and checks it is exactly the
// reference layout around a manifest that decodes to
// wantManifest(version).
func checkEnvelope(t *testing.T, data []byte, version int) {
	t.Helper()
	if len(data) < 16 || string(data[:8]) != "GARCKPT1" {
		t.Fatalf("envelope does not start with the magic: %q", data[:min(8, len(data))])
	}
	mlen := binary.BigEndian.Uint64(data[8:16])
	if mlen > uint64(len(data)-24) {
		t.Fatalf("manifest length %d exceeds the %d-byte envelope", mlen, len(data))
	}
	mbytes := data[16 : 16+mlen]
	if ref := refEnvelope(mbytes, fixtureSections()); !bytes.Equal(ref, data) {
		t.Fatalf("envelope differs from the reference encoding:\n got %x\nwant %x", data, ref)
	}
	var m Manifest
	if err := gob.NewDecoder(bytes.NewReader(mbytes)).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if want := wantManifest(version); !reflect.DeepEqual(m, want) {
		t.Fatalf("manifest %+v, want %+v", m, want)
	}
}

// TestFormatFixtureDecodes: the version-3 fixture decodes to the
// fixture's manifest and sections, and is itself the reference layout.
// The version-2 envelope an earlier build wrote keeps the same layout
// and is incompatible to this build, whole and manifest alone.
func TestFormatFixtureDecodes(t *testing.T) {
	old, err := os.ReadFile("testdata/envelope-v2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, old, 2)
	if ck, err := Decode(old); !errors.Is(err, ErrIncompatible) || ck != nil {
		t.Fatalf("version-2 fixture: Decode = %v, %v; want ErrIncompatible", ck, err)
	}
	if m, err := DecodeManifest(old); !errors.Is(err, ErrIncompatible) || m != nil {
		t.Fatalf("version-2 fixture: DecodeManifest = %v, %v; want ErrIncompatible", m, err)
	}

	data, err := os.ReadFile("testdata/envelope-v3.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, data, 3)
	ck, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := wantManifest(3); !reflect.DeepEqual(ck.Manifest, want) {
		t.Fatalf("manifest %+v, want %+v", ck.Manifest, want)
	}
	for _, s := range fixtureSections() {
		if got := ck.Section(s.Name); !bytes.Equal(got, s.Data) {
			t.Fatalf("section %q = %q, want %q", s.Name, got, s.Data)
		}
	}
	m, err := DecodeManifest(data)
	if err != nil || !reflect.DeepEqual(*m, wantManifest(3)) {
		t.Fatalf("DecodeManifest = %+v, %v", m, err)
	}
}

// TestFormatWriterMatchesReference: Encode and Store.Write both produce
// the reference layout under a version-3 manifest.
func TestFormatWriterMatchesReference(t *testing.T) {
	data, err := Encode(fixtureManifest(), fixtureSections())
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, data, 3)

	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(fixtureManifest(), fixtureSections()); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(st.Path(7))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, written, 3)
	if tmps, _ := filepath.Glob(filepath.Join(st.Dir(), ".ckpt-*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}
