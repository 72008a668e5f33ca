package rerank_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rerank"
)

// tableBlock is a table block taken apart by the test's own reading of
// the layout: the vocabulary, the pair keys, the entry offsets and the
// arena, each in id order. An entry's header is its cue flags, then
// the lengths of its token, content, bigram, trigram, number and
// first-sentence sections, which follow the header in that order.
type tableBlock struct {
	words       []string
	pairs       []uint64
	offs, arena []uint32
}

const (
	hdrFlags  = 0
	hdrToks   = 1
	hdrHeader = 7
)

func parseBlock(t *testing.T, b []byte) tableBlock {
	t.Helper()
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v
	}
	run := func() []uint32 {
		out := make([]uint32, u32())
		for i := range out {
			out[i] = u32()
		}
		return out
	}
	var tb tableBlock
	for _, n := range run() {
		tb.words = append(tb.words, string(b[:n]))
		b = b[n:]
	}
	for n := u32(); n > 0; n-- {
		tb.pairs = append(tb.pairs, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	tb.offs, tb.arena = run(), run()
	if len(b) != 0 {
		t.Fatalf("%d bytes after the arena", len(b))
	}
	return tb
}

func (tb tableBlock) encode() []byte {
	le := binary.LittleEndian
	out := le.AppendUint32(nil, uint32(len(tb.words)))
	for _, w := range tb.words {
		out = le.AppendUint32(out, uint32(len(w)))
	}
	for _, w := range tb.words {
		out = append(out, w...)
	}
	out = le.AppendUint32(out, uint32(len(tb.pairs)))
	for _, k := range tb.pairs {
		out = le.AppendUint64(out, k)
	}
	for _, run := range [][]uint32{tb.offs, tb.arena} {
		out = le.AppendUint32(out, uint32(len(run)))
		for _, w := range run {
			out = le.AppendUint32(out, w)
		}
	}
	return out
}

func (tb tableBlock) clone() tableBlock {
	return tableBlock{slices.Clone(tb.words), slices.Clone(tb.pairs), slices.Clone(tb.offs), slices.Clone(tb.arena)}
}

// TestTableCodecRoundTrip: the table decoded from a table's block is
// the table NewTable builds, field for field, on the committed suites'
// pools, a SPIDER-like pool, the edge cases (an empty dialect, numbers,
// apostrophes, non-ASCII) and an empty pool; it re-encodes to the same
// bytes; and the block is exactly the test's reading of the layout.
// AppendBinary sizes the block exactly before it writes: into a
// destination with exactly the block's spare capacity it writes
// without reallocating, which an underestimate (a reallocation
// mid-write) or an overestimate (one at the start) would break.
func TestTableCodecRoundTrip(t *testing.T) {
	cases := append(tableCases(t), tableCase{name: "empty", dialects: []string{}})
	for _, c := range cases {
		want := rerank.NewTable(c.dialects)
		block := want.AppendBinary(nil)
		got, err := rerank.DecodeTable(c.dialects, block)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded table differs from NewTable's", c.name)
		}
		if again := got.AppendBinary(nil); !bytes.Equal(again, block) {
			t.Fatalf("%s: re-encoding changed the block", c.name)
		}
		if ref := parseBlock(t, block).encode(); !bytes.Equal(ref, block) {
			t.Fatalf("%s: block differs from the reference layout", c.name)
		}
		dst := append(make([]byte, 0, 3+len(block)), "pre"...)
		if out := want.AppendBinary(dst); &out[0] != &dst[0] || !bytes.Equal(out[3:], block) {
			t.Fatalf("%s: AppendBinary reallocated a destination of exactly the block's size", c.name)
		}
		t.Logf("%s: %d entries, %d bytes (%d per entry)", c.name, want.Len(), len(block), len(block)/max(1, want.Len()))
	}
}

// TestDecodeTableRejects: every malformation of a valid block is an
// error, never a panic or a table.
func TestDecodeTableRejects(t *testing.T) {
	valid := rerank.NewTable(edgeDialects).AppendBinary(nil)
	base := parseBlock(t, valid)
	// Entry 2 ("Find the name of employee.") has tokens and at least
	// two content ids.
	e := int(base.offs[2])
	le := binary.LittleEndian
	edit := func(f func(tb *tableBlock)) []byte {
		tb := base.clone()
		f(&tb)
		return tb.encode()
	}
	cases := map[string][]byte{
		"empty":              {},
		"short count word":   {1, 0},
		"vocabulary count":   le.AppendUint32(nil, 1000),
		"vocabulary text":    append(le.AppendUint32(le.AppendUint32(nil, 1), 100), "ab"...),
		"repeated word":      edit(func(tb *tableBlock) { tb.words[1] = tb.words[0] }),
		"pairs count":        le.AppendUint32(append(le.AppendUint32(le.AppendUint32(nil, 1), 1), 'a'), 9),
		"pair past vocab":    edit(func(tb *tableBlock) { tb.pairs[0] = uint64(len(tb.words)) << 32 }),
		"pair second id":     edit(func(tb *tableBlock) { tb.pairs[0] = uint64(len(tb.words)) }),
		"repeated pair":      edit(func(tb *tableBlock) { tb.pairs[1] = tb.pairs[0] }),
		"arena count":        valid[:len(valid)-len(base.arena)*4+4],
		"trailing byte":      append(slices.Clone(valid), 0),
		"one offset fewer":   edit(func(tb *tableBlock) { tb.offs = tb.offs[:len(tb.offs)-1] }),
		"one offset more":    edit(func(tb *tableBlock) { tb.offs = append(tb.offs, uint32(len(tb.arena))) }),
		"offset past arena":  edit(func(tb *tableBlock) { tb.offs[len(tb.offs)-1] = uint32(len(tb.arena)) + 1 }),
		"offset overlaps":    edit(func(tb *tableBlock) { tb.offs[3]-- }),
		"header past arena":  edit(func(tb *tableBlock) { tb.arena = tb.arena[:tb.offs[len(tb.offs)-1]+3] }),
		"section past arena": edit(func(tb *tableBlock) { tb.arena[int(tb.offs[len(tb.offs)-1])+hdrToks] += 1000 }),
		"unknown cue flag":   edit(func(tb *tableBlock) { tb.arena[e+hdrFlags] |= 1 << 20 }),
		"token past vocab":   edit(func(tb *tableBlock) { tb.arena[e+hdrHeader] = uint32(len(tb.words)) }),
		"content descending": edit(func(tb *tableBlock) {
			c := e + hdrHeader + int(tb.arena[e+hdrToks])
			tb.arena[c], tb.arena[c+1] = tb.arena[c+1], tb.arena[c]
		}),
		"content repeated": edit(func(tb *tableBlock) {
			c := e + hdrHeader + int(tb.arena[e+hdrToks])
			tb.arena[c+1] = tb.arena[c]
		}),
		"arena after last entry": edit(func(tb *tableBlock) { tb.arena = append(tb.arena, 0) }),
	}
	for name, data := range cases {
		if table, err := rerank.DecodeTable(edgeDialects, data); err == nil || table != nil {
			t.Errorf("%s: decoded to %v, %v; want an error", name, table, err)
		} else if !strings.HasPrefix(err.Error(), "rerank: table block: ") {
			t.Errorf("%s: error %q lacks the package prefix", name, err)
		}
	}
	if _, err := rerank.DecodeTable(edgeDialects, valid); err != nil {
		t.Fatalf("the undamaged block: %v", err)
	}
}

// FuzzDecodeTable: DecodeTable never panics, and whatever it accepts
// re-encodes to exactly the bytes it was given. The fuzzer picks the
// pool size too: a block decodes only for its own number of dialects.
func FuzzDecodeTable(f *testing.F) {
	valid := rerank.NewTable(edgeDialects).AppendBinary(nil)
	f.Add(uint8(len(edgeDialects)), valid)
	f.Add(uint8(len(edgeDialects)), valid[:len(valid)/2])
	f.Add(uint8(3), rerank.NewTable(edgeDialects[:3]).AppendBinary(nil))
	f.Add(uint8(0), rerank.NewTable(nil).AppendBinary(nil))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{255, 255, 255, 255, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		dialects := make([]string, int(n)%(len(edgeDialects)+1))
		table, err := rerank.DecodeTable(dialects, data)
		if err != nil {
			return
		}
		if table.Len() != len(dialects) {
			t.Fatalf("table of %d entries for %d dialects", table.Len(), len(dialects))
		}
		if again := table.AppendBinary(nil); !bytes.Equal(again, data) {
			t.Fatalf("round trip changed the block: %x -> %x", data, again)
		}
	})
}
