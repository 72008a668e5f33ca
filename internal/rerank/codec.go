package rerank

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// A table block persists a Table as one little-endian byte run, so a
// checkpoint restore reads the table instead of building it again. In
// block order, each part led by its uint32 count:
//
//	vocabulary  count, each word's byte length (uint32), then the
//	            words' bytes, all in id order
//	pairs       count, then each bigram pair key (uint64) in id order
//	offsets     count, then each entry's arena offset (uint32)
//	arena       count, then the arena words (uint32)
//
// The dialects are not stored: the caller holds them (a checkpoint's
// pool section) and hands them to DecodeTable.

// AppendBinary appends the table's block to dst and returns the
// extended slice. It grows dst once, to the block's exact size.
func (t *Table) AppendBinary(dst []byte) []byte {
	words := make([]string, len(t.vocab))
	size := 4*4 + 4*len(words) + 8*len(t.pairs) + 4*len(t.offs) + 4*len(t.arena)
	for w, id := range t.vocab {
		words[id] = w
		size += len(w)
	}
	keys := make([]uint64, len(t.pairs))
	for k, id := range t.pairs {
		keys[id] = k
	}
	dst = slices.Grow(dst, size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(w)))
	}
	for _, w := range words {
		dst = append(dst, w...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	dst = appendWords(dst, t.offs)
	return appendWords(dst, t.arena)
}

func appendWords(dst []byte, words []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

// DecodeTable decodes a block AppendBinary wrote into the table of
// dialects, equal to NewTable(dialects) when the block is that table's.
// It checks every count against the bytes left before it allocates, so
// a hostile count cannot claim more memory than the block carries. It
// requires distinct vocabulary words and pair keys, pair keys over
// vocabulary ids, one offset per dialect, entries that follow each
// other through the whole arena, and in each entry known cue flags,
// token ids below the vocabulary's size (bigram ids below the pair
// count) and strictly ascending id sets. Every malformed block is an
// error; DecodeTable never panics.
func DecodeTable(dialects []string, data []byte) (*Table, error) {
	r := blockReader{data: data}
	nWords := r.count("vocabulary", 4)
	lens := r.take(4 * nWords)
	var text uint64
	for i := 0; i < nWords; i++ {
		text += uint64(binary.LittleEndian.Uint32(lens[4*i:]))
	}
	if r.err == nil && text > uint64(len(r.data)) {
		r.fail("vocabulary of %d bytes, %d left", text, len(r.data))
	}
	all := string(r.take(int(text)))
	t := &Table{dialects: dialects, vocab: make(map[string]uint32, nWords)}
	for i, at := 0, 0; r.err == nil && i < nWords; i++ {
		n := int(binary.LittleEndian.Uint32(lens[4*i:]))
		w := all[at : at+n]
		at += n
		if _, dup := t.vocab[w]; dup {
			r.fail("vocabulary word %q repeated at id %d", w, i)
			break
		}
		t.vocab[w] = uint32(i)
	}
	nPairs := r.count("pairs", 8)
	keys := r.take(8 * nPairs)
	t.pairs = make(map[uint64]uint32, nPairs)
	for i := 0; r.err == nil && i < nPairs; i++ {
		k := binary.LittleEndian.Uint64(keys[8*i:])
		if k>>32 >= uint64(nWords) || k&(1<<32-1) >= uint64(nWords) {
			r.fail("pair %d joins ids past the vocabulary of %d", i, nWords)
			break
		}
		if _, dup := t.pairs[k]; dup {
			r.fail("pair key %#x repeated at id %d", k, i)
			break
		}
		t.pairs[k] = uint32(i)
	}
	t.offs = r.words("offsets")
	t.arena = r.words("arena")
	if r.err == nil && len(t.offs) != len(dialects) {
		r.fail("%d entry offsets for %d dialects", len(t.offs), len(dialects))
	}
	if r.err == nil && len(r.data) != 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := t.checkEntries(); err != nil {
		return nil, err
	}
	return t, nil
}

// blockReader consumes a table block front to back. After the first
// failure every read returns nothing and err keeps that failure.
type blockReader struct {
	data []byte
	err  error
}

func (r *blockReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = blockError(format, args...)
	}
}

func blockError(format string, args ...any) error {
	return fmt.Errorf("rerank: table block: "+format, args...)
}

// count reads a count word and checks that count items of size bytes
// each fit in what is left.
func (r *blockReader) count(what string, size int) int {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if n*uint64(size) > uint64(len(r.data)) {
		r.fail("%s of %d items of %d bytes, %d bytes left", what, n, size, len(r.data))
		return 0
	}
	return int(n)
}

// take consumes the next n bytes.
func (r *blockReader) take(n int) []byte {
	if r.err == nil && n > len(r.data) {
		r.fail("%d bytes short", n-len(r.data))
	}
	if r.err != nil {
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// words reads a counted run of uint32 words.
func (r *blockReader) words(what string) []uint32 {
	n := r.count(what, 4)
	b := r.take(4 * n)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// allCues is every cue flag bit an entry header may carry.
const allCues = cueSuper | cueNeg | cueAgg | cueForEach | cueOrderOf | cueCompare

// checkEntries checks that the entries follow each other from the
// start of the arena to its end, each header and its sections inside
// it, and that every section holds what entry expects of it.
func (t *Table) checkEntries() error {
	nWords, nPairs, size := uint64(len(t.vocab)), uint64(len(t.pairs)), uint64(len(t.arena))
	at := uint64(0)
	for i, off := range t.offs {
		if uint64(off) != at {
			return blockError("entry %d starts at word %d, not where its predecessor ends (%d)", i, off, at)
		}
		if size-at < entryHeader {
			return blockError("entry %d's header runs past the arena of %d words", i, size)
		}
		h := t.arena[at : at+entryHeader]
		at += entryHeader
		for _, n := range h[hToks:] {
			at += uint64(n)
		}
		if at > size {
			return blockError("entry %d's sections end at word %d, past the arena of %d words", i, at, size)
		}
		if h[hFlags]&^allCues != 0 {
			return blockError("entry %d has unknown cue flags %#x", i, h[hFlags])
		}
		e := t.entry(i)
		for _, s := range [...]struct {
			name  string
			ids   []uint32
			bound uint64 // every id is below it
			set   bool   // strictly ascending
		}{
			{"token", e.toks, nWords, false},
			{"content", e.content, nWords, true},
			{"bigram", e.bigrams, nPairs, true},
			{"trigram", e.grams, 1 << 24, true},
			{"number", e.nums, nWords, true},
			{"first-sentence", e.first, nWords, true},
		} {
			for j, id := range s.ids {
				if uint64(id) >= s.bound {
					return blockError("entry %d's %s id %d is not below %d", i, s.name, id, s.bound)
				}
				if s.set && j > 0 && id <= s.ids[j-1] {
					return blockError("entry %d's %s ids are not strictly ascending", i, s.name)
				}
			}
		}
	}
	if at != size {
		return blockError("%d arena words after the last entry", size-at)
	}
	return nil
}
