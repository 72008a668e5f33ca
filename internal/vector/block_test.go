package vector_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/vector"
)

// blockRows are rows whose bit patterns a lossy codec would change:
// signed zeros, subnormals, infinities and a NaN with a payload.
func blockRows() []vector.Vec {
	return []vector.Vec{
		{1, -2.5, float32(math.Copysign(0, -1))},
		{math.SmallestNonzeroFloat32, math.MaxFloat32, float32(math.Inf(-1))},
		{math.Float32frombits(0x7fc00abc), 0.1, -1e-30},
	}
}

// TestRowsBlockRoundTrip: a flat block decodes to the same bits, into
// rows that share one backing array and cannot grow into each other.
func TestRowsBlockRoundTrip(t *testing.T) {
	rows := blockRows()
	block, err := vector.EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 4*3*3; len(block) != want || cap(block) != want {
		t.Fatalf("block of %d bytes (cap %d), want %d", len(block), cap(block), want)
	}
	got, err := vector.DecodeRows(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) || cap(got[i]) != len(rows[i]) {
			t.Fatalf("row %d: len %d cap %d, want %d", i, len(got[i]), cap(got[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(rows[i][j]) {
				t.Fatalf("row %d col %d: bits %#x, want %#x", i, j, math.Float32bits(got[i][j]), math.Float32bits(rows[i][j]))
			}
		}
	}
	// One backing array and one slice of row headers, at any size.
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := vector.DecodeRows(block); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decoding allocated %.0f times, want 2", allocs)
	}

	empty, err := vector.EncodeRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := vector.DecodeRows(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty block: %v rows, err %v", len(got), err)
	}
}

// TestRowsBlockRejects: every inconsistency between the header and the
// body is an error, decided before anything is allocated — the huge
// claims would exhaust memory otherwise.
func TestRowsBlockRejects(t *testing.T) {
	if _, err := vector.EncodeRows([]vector.Vec{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows encoded")
	}
	if _, err := vector.EncodeRows([]vector.Vec{{}, {}}); err == nil {
		t.Error("rows of dimension 0 encoded")
	}
	valid, err := vector.EncodeRows(blockRows())
	if err != nil {
		t.Fatal(err)
	}
	header := func(count, dim uint32, body int) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		b = binary.LittleEndian.AppendUint32(b, dim)
		return append(b, make([]byte, body)...)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   valid[:5],
		"truncated body": valid[:len(valid)-1],
		"missing row":    valid[:len(valid)-12],
		"extra bytes":    append(append([]byte(nil), valid...), 0, 0, 0, 0),
		"wrong dim":      append(header(3, 4, 0), valid[8:]...),
		"zero dim":       header(1<<20, 0, 0),
		"huge claim":     header(math.MaxUint32, math.MaxUint32, 16),
		"count no body":  header(2, 1, 0),
	}
	for name, data := range cases {
		if rows, err := vector.DecodeRows(data); err == nil {
			t.Errorf("%s: decoded %d rows from a malformed block", name, len(rows))
		}
	}
}

// FuzzDecodeRows: DecodeRows never panics, and whatever it accepts
// re-encodes to exactly the bytes it was given.
func FuzzDecodeRows(f *testing.F) {
	valid, err := vector.EncodeRows(blockRows())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := vector.DecodeRows(data)
		if err != nil {
			return
		}
		again, err := vector.EncodeRows(rows)
		if err != nil {
			t.Fatalf("decoded rows do not re-encode: %v", err)
		}
		if len(rows) == 0 {
			// The dimension word of an empty block carries nothing.
			if len(data) != 8 {
				t.Fatalf("empty table from %d bytes", len(data))
			}
			return
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("round trip changed the block: %x -> %x", data, again)
		}
	})
}

// TestRowsCapped: Rows hands out zeroed rows of one backing array, each
// capped at its dimension, so appending to a row copies instead of
// overwriting the next one.
func TestRowsCapped(t *testing.T) {
	rows := vector.Rows(3, 2)
	for i, r := range rows {
		if len(r) != 2 || cap(r) != 2 || r[0] != 0 || r[1] != 0 {
			t.Fatalf("row %d = %v (cap %d), want two zeros capped at 2", i, r, cap(r))
		}
	}
	grown := append(rows[0], 7)
	grown[0] = 5
	if rows[1][0] != 0 || rows[0][0] != 0 {
		t.Fatalf("append to row 0 wrote through: rows %v", rows)
	}
}
