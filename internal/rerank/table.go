package rerank

import (
	"context"
	"math"
	"slices"
	"strings"

	"repro/internal/parallel"
	"repro/internal/text"
	"repro/internal/vector"
)

// Table holds the dialect side of every cross-pair feature for a fixed
// list of dialect expressions: token ids from a table-wide vocabulary,
// sorted unique id sets (content tokens, bigram pairs, first-sentence
// tokens, numbers), packed character trigrams and the cue flags.
// Pipelines build one per snapshot, so a translation pays only the
// question side and the set intersections, never a re-tokenization of
// the retrieved dialects. A Table is immutable after NewTable and safe
// for concurrent readers.
//
// Every entry lives in one []uint32 arena: a header of entryHeader
// words (cue flags, then the length of each section) followed by the
// sections in header order.
type Table struct {
	dialects []string
	vocab    map[string]uint32
	pairs    map[uint64]uint32
	arena    []uint32
	offs     []uint32
}

// Entry header layout: the cue flags word, then one length word per
// section, in the order the sections follow the header.
const (
	hFlags = iota
	hToks
	hContent
	hBigrams
	hGrams
	hNums
	hFirst
	entryHeader
)

// Cue flag bits of the header's flags word.
const (
	cueSuper uint32 = 1 << iota
	cueNeg
	cueAgg
	cueForEach
	cueOrderOf
	cueCompare
)

// entry is a view of one table entry's sections inside the arena.
type entry struct {
	flags                                      uint32
	toks, content, bigrams, grams, nums, first []uint32
}

// NewTable computes the dialect side of the features of every dialect.
// Entry i of the table is dialects[i].
func NewTable(dialects []string) *Table {
	t := &Table{
		dialects: dialects,
		vocab:    make(map[string]uint32),
		pairs:    make(map[uint64]uint32),
		offs:     make([]uint32, len(dialects)),
	}
	// About one arena word per dialect byte; the final copy trims the
	// estimate to the exact size.
	words := 0
	for _, d := range dialects {
		words += len(d) + entryHeader
	}
	t.arena = make([]uint32, 0, words)
	b := tableBuilder{raw: make(map[string]int), gramsOf: make(map[uint32][2]int)}
	for i, d := range dialects {
		t.offs[i] = uint32(len(t.arena))
		t.arena = b.appendEntry(t, d)
	}
	t.arena = slices.Clone(t.arena)
	return t
}

// Len is the number of entries.
func (t *Table) Len() int { return len(t.offs) }

// Bytes is the table's retained size: the arena, the entry offsets
// and an estimate of the two vocabularies' map storage. The dialect
// strings themselves are shared with the caller and not counted.
func (t *Table) Bytes() int64 {
	n := int64(cap(t.arena)+len(t.offs)) * 4
	n += int64(len(t.dialects)) * 16
	for tok := range t.vocab {
		n += int64(len(tok)) + 32
	}
	return n + int64(len(t.pairs))*24
}

func (t *Table) entry(i int) entry {
	a := t.arena[t.offs[i]:]
	h := a[:entryHeader]
	a = a[entryHeader:]
	cut := func(n uint32) []uint32 {
		s := a[:n:n]
		a = a[n:]
		return s
	}
	return entry{
		flags:   h[hFlags],
		toks:    cut(h[hToks]),
		content: cut(h[hContent]),
		bigrams: cut(h[hBigrams]),
		grams:   cut(h[hGrams]),
		nums:    cut(h[hNums]),
		first:   cut(h[hFirst]),
	}
}

func (t *Table) intern(s string) uint32 {
	id, ok := t.vocab[s]
	if !ok {
		id = uint32(len(t.vocab))
		t.vocab[s] = id
	}
	return id
}

func (t *Table) internPair(a, b uint32) uint32 {
	key := uint64(a)<<32 | uint64(b)
	id, ok := t.pairs[key]
	if !ok {
		id = uint32(len(t.pairs))
		t.pairs[key] = id
	}
	return id
}

// tableBuilder holds the scratch state of one table build. A pool's
// dialects share a small vocabulary, so everything derived from a
// token alone — its ids, canonical form, trigrams and cue flags — is
// computed once per distinct token and looked up afterwards.
type tableBuilder struct {
	raw  map[string]int // token → index into info
	info []tokenInfo
	// grams holds the packed trigrams of every canonical content token;
	// gramsOf[id] is the range of vocab id's trigrams in it.
	grams   []uint32
	gramsOf map[uint32][2]int
	buf     []byte

	toks, content, bigrams, entryGrams, nums, first []uint32
}

// tokenInfo is what the build needs of one distinct token.
type tokenInfo struct {
	id, canon    uint32 // vocab ids of the token and its canonical form
	stop, number bool
	cues         uint32 // cueSuper/cueNeg/cueAgg bits
}

func (b *tableBuilder) token(t *Table, tok []byte) *tokenInfo {
	if i, ok := b.raw[string(tok)]; ok {
		return &b.info[i]
	}
	s := string(tok)
	ti := tokenInfo{
		id:     t.intern(s),
		stop:   text.IsStopword(s),
		number: isNumber(s),
		cues: cueBit(cueSuper, superlatives[s]) | cueBit(cueNeg, negations[s]) |
			cueBit(cueAgg, aggregates[s]),
	}
	if !ti.stop {
		c := text.Canon(s)
		ti.canon = t.intern(c)
		if _, ok := b.gramsOf[ti.canon]; !ok {
			lo := len(b.grams)
			b.grams = appendGrams(b.grams, c)
			b.gramsOf[ti.canon] = [2]int{lo, len(b.grams)}
		}
	}
	b.raw[s] = len(b.info)
	b.info = append(b.info, ti)
	return &b.info[len(b.info)-1]
}

// appendEntry appends the header and sections of dialect d to t's
// arena and returns the grown arena.
func (b *tableBuilder) appendEntry(t *Table, d string) []uint32 {
	b.toks, b.content, b.bigrams = b.toks[:0], b.content[:0], b.bigrams[:0]
	b.entryGrams, b.nums, b.first = b.entryGrams[:0], b.nums[:0], b.first[:0]
	// Tokens that end at or before the first sentence's end belong to
	// it: the '.' that ends the sentence also ends its last token.
	firstEnd := len(firstSentence(d))
	var cues uint32
	b.buf = text.EachToken(d, b.buf, func(tok []byte, end int) {
		ti := b.token(t, tok)
		if len(b.toks) > 0 {
			b.bigrams = append(b.bigrams, t.internPair(b.toks[len(b.toks)-1], ti.id))
		}
		b.toks = append(b.toks, ti.id)
		cues |= ti.cues
		if ti.number {
			b.nums = append(b.nums, ti.id)
		}
		if !ti.stop {
			b.content = append(b.content, ti.canon)
			if end <= firstEnd {
				b.first = append(b.first, ti.canon)
			}
		}
	})
	flags := cues |
		cueBit(cueForEach, strings.Contains(d, "for each")) |
		cueBit(cueOrderOf, strings.Contains(d, "order of")) |
		cueBit(cueCompare, hasCompareCue(d))
	b.content, b.bigrams = sortUnique(b.content), sortUnique(b.bigrams)
	b.nums, b.first = sortUnique(b.nums), sortUnique(b.first)
	for _, c := range b.content {
		r := b.gramsOf[c]
		b.entryGrams = append(b.entryGrams, b.grams[r[0]:r[1]]...)
	}
	b.entryGrams = sortUnique(b.entryGrams)
	a := append(t.arena, flags, uint32(len(b.toks)), uint32(len(b.content)), uint32(len(b.bigrams)),
		uint32(len(b.entryGrams)), uint32(len(b.nums)), uint32(len(b.first)))
	a = append(a, b.toks...)
	a = append(a, b.content...)
	a = append(a, b.bigrams...)
	a = append(a, b.entryGrams...)
	a = append(a, b.nums...)
	return append(a, b.first...)
}

// firstSentence is the dialect's projection sentence: the text before
// its first '.', or the whole dialect when it has none at a positive
// offset.
func firstSentence(d string) string {
	if i := strings.IndexByte(d, '.'); i > 0 {
		return d[:i]
	}
	return d
}

func cueBit(bit uint32, on bool) uint32 {
	if on {
		return bit
	}
	return 0
}

func isNumber(tok string) bool { return tok[0] >= '0' && tok[0] <= '9' }

// appendGrams appends the packed character trigrams of one token, as
// text.CharNGrams(tok, 3) would produce them. Tokens are never empty,
// so the '#'-padded token is at least three bytes and every trigram is
// exactly three bytes, which a uint32 holds without a vocabulary.
func appendGrams(dst []uint32, tok string) []uint32 {
	padded := len(tok) + 2
	at := func(i int) uint32 {
		if i == 0 || i == padded-1 {
			return '#'
		}
		return uint32(tok[i-1])
	}
	for i := 0; i+3 <= padded; i++ {
		dst = append(dst, at(i)<<16|at(i+1)<<8|at(i+2))
	}
	return dst
}

func sortUnique(s []uint32) []uint32 {
	slices.Sort(s)
	return slices.Compact(s)
}

// Match is a prepared question mapped into one table's vocabulary: the
// question side of every feature as ids comparable with the table's
// entries. Tokens the table has never seen get ids past its
// vocabulary, so they count toward the question's set sizes but never
// intersect an entry. A Match is immutable once built and safe to
// share across scoring workers.
type Match struct {
	t *Table
	p *Prep
	// toks are the question's token ids in order.
	toks []uint32
	// content, bigrams, nums and head are sorted unique id sets (the
	// packed trigram set needs no vocabulary and stays on the Prep).
	content, bigrams, nums, head []uint32
	// ord lists the content ids in first-occurrence order with their
	// IDF weights, and total is the weights' sum in that order — the
	// summation order of text.IDF.WeightedOverlap.
	ord    []uint32
	weight []float64
	total  float64
	// peq is the bit-parallel edit distance's match-mask table: bit j
	// of peq[id] is set when the question's token j has vocab id id.
	// Nil when the question has no tokens or more than maxMyers, which
	// fall back to the DP.
	peq []uint64
}

// maxMyers is the longest question, in tokens, whose edit distance
// runs bit-parallel: one machine word holds a column of the DP.
const maxMyers = 64

// matchMasks builds the match-mask table of a question's token ids
// over a vocabulary of vocab ids, or nil when the question is empty or
// longer than maxMyers. Only ids below vocab can occur in a table
// entry, so the table covers exactly those.
func matchMasks(toks []uint32, vocab int) []uint64 {
	if len(toks) == 0 || len(toks) > maxMyers {
		return nil
	}
	peq := make([]uint64, vocab)
	for j, tok := range toks {
		if int(tok) < vocab {
			peq[tok] |= 1 << j
		}
	}
	return peq
}

// Match maps the prepared question into t's vocabulary.
func (x *Extractor) Match(p *Prep, t *Table) *Match {
	m := &Match{t: t, p: p}
	var unknown map[string]uint32
	id := func(s string) uint32 {
		if v, ok := t.vocab[s]; ok {
			return v
		}
		if unknown == nil {
			unknown = make(map[string]uint32)
		}
		v, ok := unknown[s]
		if !ok {
			v = uint32(len(t.vocab) + len(unknown))
			unknown[s] = v
		}
		return v
	}
	m.toks = make([]uint32, len(p.toks))
	var unknownPairs map[uint64]uint32
	for i, tok := range p.toks {
		m.toks[i] = id(tok)
		if isNumber(tok) {
			m.nums = append(m.nums, m.toks[i])
		}
		if i == 0 {
			continue
		}
		key := uint64(m.toks[i-1])<<32 | uint64(m.toks[i])
		pid, ok := t.pairs[key]
		if !ok {
			if unknownPairs == nil {
				unknownPairs = make(map[uint64]uint32)
			}
			if pid, ok = unknownPairs[key]; !ok {
				pid = uint32(len(t.pairs) + len(unknownPairs))
				unknownPairs[key] = pid
			}
		}
		m.bigrams = append(m.bigrams, pid)
	}
	m.content = make([]uint32, len(p.content))
	for i, c := range p.content {
		m.content[i] = id(c)
		if !slices.Contains(m.ord, m.content[i]) {
			w := x.IDF.Weight(c)
			m.ord = append(m.ord, m.content[i])
			m.weight = append(m.weight, w)
			m.total += w
		}
	}
	m.peq = matchMasks(m.toks, len(t.vocab))
	m.head = sortUnique(slices.Clone(m.content[:min(3, len(m.content))]))
	m.content = sortUnique(m.content)
	m.bigrams, m.nums = sortUnique(m.bigrams), sortUnique(m.nums)
	return m
}

// FeaturesAt computes the feature vector of the matched question
// against table entry i. dialVec, when non-nil, must be the encoder
// embedding of the entry's dialect; nil encodes it on the spot.
func (x *Extractor) FeaturesAt(m *Match, i int, dialVec vector.Vec, cost float64) []float64 {
	var sc scratch
	return x.pairFeatures(make([]float64, FeatureDim), m, i, dialVec, cost, &sc)
}

// scratch is one scoring worker's reusable buffers.
type scratch struct {
	prev, cur []int
	f         []float64
}

// pairFeatures is the one implementation of the cross-pair feature
// math: it writes the FeatureDim features of (m's question, entry i)
// into f and returns it.
func (x *Extractor) pairFeatures(f []float64, m *Match, i int, dialVec vector.Vec, cost float64, sc *scratch) []float64 {
	e := m.t.entry(i)
	p := m.p
	// 0-2: token-set similarity.
	inter := intersect(m.content, e.content)
	f[0] = jaccard(len(m.content), len(e.content), inter)
	f[1] = overlap(len(m.content), inter)
	f[2] = overlap(len(e.content), inter)
	// 3: IDF-weighted coverage of the NL query by the dialect.
	f[3] = m.weightedOverlap(e.content)
	// 4: bigram overlap.
	f[4] = jaccard(len(m.bigrams), len(e.bigrams), intersect(m.bigrams, e.bigrams))
	// 5: character-trigram similarity (robust to morphology).
	f[5] = jaccard(len(p.grams), len(e.grams), intersect(p.grams, e.grams))
	// 6: normalized token edit distance.
	ed := m.editDistance(e.toks, sc)
	den := len(m.toks) + len(e.toks)
	if den == 0 {
		den = 1
	}
	f[6] = 1 - float64(ed)/float64(den)
	// 7-8: length signals.
	f[7] = lengthRatio(len(m.toks), len(e.toks))
	f[8] = math.Abs(float64(len(m.toks)-len(e.toks))) / 16
	// 9: numeric literal agreement: no numbers on either side agrees
	// perfectly, otherwise Jaccard.
	if len(m.nums) == 0 && len(e.nums) == 0 {
		f[9] = 1
	} else {
		f[9] = jaccard(len(m.nums), len(e.nums), intersect(m.nums, e.nums))
	}
	// 10-12: superlative / negation / aggregate marker agreement.
	f[10] = boolFeat(p.hasSuper == (e.flags&cueSuper != 0))
	f[11] = boolFeat(p.hasNeg == (e.flags&cueNeg != 0))
	f[12] = boolFeat(p.hasAgg == (e.flags&cueAgg != 0))
	// 13: "for each"/"per" vs GROUP BY phrase agreement.
	f[13] = boolFeat(p.groupCue == (e.flags&cueForEach != 0))
	// 14: ordering cue agreement.
	f[14] = boolFeat(p.orderCue == (e.flags&cueOrderOf != 0))
	// 15: comparison cue agreement ("more than", "at least", ...).
	f[15] = boolFeat(p.compareCue == (e.flags&cueCompare != 0))
	// 16: select-sentence agreement — coverage of the dialect's first
	// sentence (the projection) by the NL query; separates candidates
	// that differ only in the selected columns.
	f[16] = overlap(len(e.first), intersect(e.first, m.content))
	// 17: leading-token agreement — the head of the question names the
	// projection ("find the AGE of ..."), so its first content tokens
	// must appear in the dialect's projection sentence. This separates
	// role-swapped candidates (ORDER BY age vs SELECT age) that share a
	// bag of words.
	f[17] = overlap(len(m.head), intersect(m.head, e.first))
	// 18: learned retrieval similarity.
	switch {
	case x.Encoder == nil:
		f[18] = 0
	case dialVec != nil:
		f[18] = float64(vector.Dot(p.vec, dialVec))
	default:
		f[18] = float64(vector.Dot(p.vec, x.Encoder.Encode(m.t.dialects[i])))
	}
	// 19: estimated execution cost of the candidate's SQL.
	f[19] = cost
	// 20: bias.
	f[20] = 1
	return f
}

// weightedOverlap is text.IDF.WeightedOverlap(question content, entry
// content): the question's IDF weight covered by the entry, summed in
// the question's first-occurrence order.
func (m *Match) weightedOverlap(content []uint32) float64 {
	if len(m.ord) == 0 {
		return 0
	}
	var hit float64
	for j, id := range m.ord {
		if _, ok := slices.BinarySearch(content, id); ok {
			hit += m.weight[j]
		}
	}
	if m.total == 0 {
		return 0
	}
	return hit / m.total
}

// intersect counts the common elements of two sorted unique sets.
func intersect(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// jaccard is text.Jaccard over sets of sizes na and nb sharing inter
// elements.
func jaccard(na, nb, inter int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-inter)
}

// overlap is text.OverlapRatio for a set of size na of which inter
// elements are covered.
func overlap(na, inter int) float64 {
	if na == 0 {
		return 0
	}
	return float64(inter) / float64(na)
}

// editDistance is text.EditDistance(question tokens, b). Questions of
// at most maxMyers tokens take Myers' bit-parallel algorithm in
// Hyyrö's edit-distance form over the match masks; longer ones take
// the DP on the scratch rows.
func (m *Match) editDistance(b []uint32, sc *scratch) int {
	if m.peq == nil || len(b) == 0 {
		return sc.editDistance(m.toks, b)
	}
	// pv and mv are the DP column's vertical +1 and -1 deltas, one bit
	// per question token; score tracks the bottom cell. Bits above the
	// question's length hold junk, but every operation carries
	// information only upward, so they never reach the bits below.
	last := uint64(1) << (len(m.toks) - 1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(m.toks)
	for _, c := range b {
		var eq uint64
		if int(c) < len(m.peq) {
			eq = m.peq[c]
		}
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Row 0 of the DP is D[0][j] = j: its horizontal delta is +1.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// editDistance is text.EditDistance over token ids, on the scratch
// rows.
func (sc *scratch) editDistance(a, b []uint32) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	if cap(sc.prev) < len(b)+1 {
		sc.prev, sc.cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	prev, cur := sc.prev[:len(b)+1], sc.cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// RankTableContext ranks table entries ids for a prepared question and
// returns the descending-score order (positions into ids) and the raw
// score per position. dialVecs and costs are each either nil or
// aligned with the table's entries. The question is mapped into the
// table once; the scoring fans out across workers (0 means one per
// CPU), each with its own scratch buffers. Every score depends only on
// its own pair, so the result is bit-identical for any worker count.
func (m *Model) RankTableContext(ctx context.Context, p *Prep, t *Table, ids []int, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	scores := make([]float64, len(ids))
	if len(ids) == 0 {
		return nil, scores, ctx.Err()
	}
	match := m.X.Match(p, t)
	chunks := min(parallel.Workers(workers), len(ids))
	size := (len(ids) + chunks - 1) / chunks
	err := parallel.ForEach(ctx, chunks, chunks, func(c int) error {
		sc := scratch{f: make([]float64, FeatureDim)}
		for j := c * size; j < min((c+1)*size, len(ids)); j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			id := ids[j]
			var dv vector.Vec
			if dialVecs != nil {
				dv = dialVecs[id]
			}
			var cost float64
			if costs != nil {
				cost = costs[id]
			}
			scores[j] = m.Net.Score(m.X.pairFeatures(sc.f, match, id, dv, cost, &sc))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rankOrder(scores), scores, nil
}
