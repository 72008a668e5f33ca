package rerank_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/qualgate"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/text"
	"repro/internal/vector"
)

// oracleFeatures is the string-based cross-pair feature extractor the
// feature table replaced, kept verbatim as the bit-identity reference:
// every dialect is re-tokenized and every set rebuilt per pair.
func oracleFeatures(x *rerank.Extractor, nl, dial string, dialVec vector.Vec, cost float64) []float64 {
	var qvec vector.Vec
	if x.Encoder != nil {
		qvec = x.Encoder.Encode(nl)
	}
	pToks := text.Tokenize(nl)
	pContent := text.CanonTokens(nl)
	pBigrams := text.NGrams(pToks, 2)
	pGrams := oCharGrams(pContent)
	pNums := oNumbers(pToks)
	pHead := pContent
	if len(pHead) > 3 {
		pHead = pHead[:3]
	}

	dToks := text.Tokenize(dial)
	dContent := text.CanonTokens(dial)

	f := make([]float64, 0, rerank.FeatureDim)
	f = append(f, text.Jaccard(pContent, dContent))
	f = append(f, text.OverlapRatio(pContent, dContent))
	f = append(f, text.OverlapRatio(dContent, pContent))
	f = append(f, x.IDF.WeightedOverlap(pContent, dContent))
	f = append(f, text.Jaccard(pBigrams, text.NGrams(dToks, 2)))
	f = append(f, text.Jaccard(pGrams, oCharGrams(dContent)))
	ed := text.EditDistance(pToks, dToks)
	den := len(pToks) + len(dToks)
	if den == 0 {
		den = 1
	}
	f = append(f, 1-float64(ed)/float64(den))
	f = append(f, oLengthRatio(len(pToks), len(dToks)))
	f = append(f, math.Abs(float64(len(pToks)-len(dToks)))/16)
	f = append(f, oSetAgreement(pNums, oNumbers(dToks)))
	f = append(f, oBool(oHasAny(pToks, oSuperlatives) == oHasAny(dToks, oSuperlatives)))
	f = append(f, oBool(oHasAny(pToks, oNegations) == oHasAny(dToks, oNegations)))
	f = append(f, oBool(oHasAny(pToks, oAggregates) == oHasAny(dToks, oAggregates)))
	f = append(f, oBool(oContainsAny(nl, oGroupCues) == strings.Contains(dial, "for each")))
	f = append(f, oBool(oContainsAny(nl, oOrderCues) == strings.Contains(dial, "order of")))
	f = append(f, oBool(oContainsAny(nl, oCompareCues) == oContainsAny(dial, oCompareCues)))
	firstSentence := dial
	if i := strings.IndexByte(dial, '.'); i > 0 {
		firstSentence = dial[:i]
	}
	f = append(f, text.OverlapRatio(text.CanonTokens(firstSentence), pContent))
	f = append(f, text.OverlapRatio(pHead, text.CanonTokens(firstSentence)))
	switch {
	case x.Encoder == nil:
		f = append(f, 0)
	case dialVec != nil:
		f = append(f, float64(vector.Dot(qvec, dialVec)))
	default:
		f = append(f, float64(vector.Dot(qvec, x.Encoder.Encode(dial))))
	}
	f = append(f, cost)
	return append(f, 1)
}

var (
	oSuperlatives = oSet("most highest largest biggest maximum max top best fewest lowest smallest minimum min least youngest oldest longest shortest earliest latest")
	oNegations    = oSet("not no never without except exclude excluding")
	oAggregates   = oSet("number count many total sum average mean maximum minimum highest lowest")
	oGroupCues    = []string{"for each", " per ", "each ", "for every"}
	oOrderCues    = []string{"order of", "sorted", "sort ", "ordered", "alphabetical",
		"ascending", "descending", "highest", "lowest", "most", "fewest", "largest",
		"smallest", "top ", "best", "oldest", "youngest", "longest", "shortest"}
	oCompareCues = []string{"more than", "less than", "greater than", "at least",
		"at most", "above", "below", "over ", "under ", "exceed"}
)

func oSet(words string) map[string]bool {
	m := map[string]bool{}
	for _, w := range strings.Fields(words) {
		m[w] = true
	}
	return m
}

func oContainsAny(s string, cues []string) bool {
	ls := strings.ToLower(s)
	for _, c := range cues {
		if strings.Contains(ls, c) {
			return true
		}
	}
	return false
}

func oHasAny(tokens []string, set map[string]bool) bool {
	for _, t := range tokens {
		if set[t] {
			return true
		}
	}
	return false
}

func oCharGrams(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		out = append(out, text.CharNGrams(t, 3)...)
	}
	return out
}

func oNumbers(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		if t[0] >= '0' && t[0] <= '9' {
			out = append(out, t)
		}
	}
	return out
}

func oLengthRatio(a, b int) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return float64(a) / float64(b)
}

func oSetAgreement(na, nb []string) float64 {
	if len(na) == 0 && len(nb) == 0 {
		return 1
	}
	return text.Jaccard(na, nb)
}

func oBool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// tableCase is one pool of dialects and the questions asked against it.
type tableCase struct {
	name      string
	dialects  []string
	questions []string
}

// edgeQuestions exercise the mapping corners: unknown tokens, empty
// sets, numbers, apostrophes and non-ASCII text.
var edgeQuestions = []string{
	"",
	"?!",
	"the of a",
	"zzyzx qwerty unknownword",
	"employees older than 30 and 45 or 30",
	"who's the oldest employee in Zürich?",
	"O'Brien's café naïve résumé",
	"how many employees per city, sorted by age",
	"3rd 2 2 2 100",
	"Ünïcode ÀÉÎ ß ǅ",
}

// edgeDialects pair with edgeQuestions for the synthetic case.
var edgeDialects = []string{
	"",
	".",
	"Find the name of employee.",
	"Find the name of employee. Return results only for employee that age is greater than 30.",
	"Return the number of employees for each city. Sort in order of age.",
	"O'Brien's café. naïve résumé 2 2 3rd",
	"Ünïcode ÀÉÎ ß ǅ without 100",
	"Find the age of employees whose city is Zürich and age is at least 45.",
}

func poolDialects(t *testing.T, db *schema.Database, samples []*sqlast.Query, join bool) []string {
	t.Helper()
	sys := core.New(db, core.Options{GeneralizeSize: 300, Seed: 42, JoinAnnotations: join})
	sys.Prepare(samples)
	d := sys.PoolDialects()
	if len(d) == 0 {
		t.Fatalf("%s: empty pool", db.Name)
	}
	return d
}

func tableCases(t *testing.T) []tableCase {
	cases := []tableCase{{name: "edge", dialects: edgeDialects, questions: edgeQuestions}}
	for _, s := range qualgate.Suites() {
		var samples []*sqlast.Query
		for _, raw := range s.Samples {
			samples = append(samples, sqlparse.MustParse(raw))
		}
		cases = append(cases, tableCase{
			name:      s.Name,
			dialects:  append(poolDialects(t, s.DB, samples, s.JoinAnnotations), edgeDialects...),
			questions: append(append([]string(nil), s.Questions...), edgeQuestions...),
		})
	}
	bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, ValDBs: 1, TrainPerDB: 10, ValPerDB: 25, Seed: 3})
	for _, db := range datasets.DBNames(bench.Val) {
		var qs []string
		for _, it := range bench.Val {
			if it.DB == db {
				qs = append(qs, it.NL)
			}
		}
		cases = append(cases, tableCase{
			name:      db,
			dialects:  poolDialects(t, bench.Bundle(db).Schema, datasets.GoldQueries(bench.Val, db), false),
			questions: qs,
		})
	}
	return cases
}

func caseExtractor(c tableCase) *rerank.Extractor {
	corpus := append(append([]string(nil), c.dialects...), c.questions...)
	enc := embed.NewEncoder(embed.Config{Seed: 1})
	enc.FitIDF(corpus)
	return &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: enc}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d features, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: feature %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestTableBitIdentity pins the feature table's pair math to the
// string-based oracle, bit for bit, for every (question, candidate)
// pair of the committed suites' pools and a SPIDER-like pool — through
// a snapshot-wide table, through the one-entry table of
// FeaturesPrepCost, with and without precomputed dialect embeddings.
func TestTableBitIdentity(t *testing.T) {
	pairs := 0
	for _, c := range tableCases(t) {
		x := caseExtractor(c)
		table := rerank.NewTable(c.dialects)
		if table.Len() != len(c.dialects) {
			t.Fatalf("%s: table has %d entries for %d dialects", c.name, table.Len(), len(c.dialects))
		}
		vecs := make([]vector.Vec, len(c.dialects))
		for i, d := range c.dialects {
			vecs[i] = x.Encoder.Encode(d)
		}
		for qi, nl := range c.questions {
			p := x.Prepare(nl)
			m := x.Match(p, table)
			for i, d := range c.dialects {
				cost := float64((qi+i)%7) / 7
				want := oracleFeatures(x, nl, d, vecs[i], cost)
				sameBits(t, c.name+": "+nl+" | "+d, x.FeaturesAt(m, i, vecs[i], cost), want)
				if i%5 == 0 {
					sameBits(t, c.name+" (one-entry): "+nl+" | "+d, x.FeaturesPrepCost(p, d, nil, cost), want)
				}
				pairs++
			}
		}
	}
	t.Logf("%d pairs", pairs)
	if pairs < 5000 {
		t.Errorf("only %d pairs checked", pairs)
	}
}

// TestTableNoEncoder covers the extractor without an encoder: the
// similarity feature is zero on both paths.
func TestTableNoEncoder(t *testing.T) {
	x := &rerank.Extractor{IDF: text.NewIDF(edgeDialects)}
	table := rerank.NewTable(edgeDialects)
	for _, nl := range edgeQuestions {
		m := x.Match(x.Prepare(nl), table)
		for i, d := range edgeDialects {
			sameBits(t, nl+" | "+d, x.FeaturesAt(m, i, nil, 0), oracleFeatures(x, nl, d, nil, 0))
		}
	}
}

// TestRankTableMatchesOracle pins table ranking over a subset of
// entries, at several worker counts, to the oracle features scored
// pair by pair.
func TestRankTableMatchesOracle(t *testing.T) {
	c := tableCases(t)[1]
	x := caseExtractor(c)
	model, err := rerank.New(x, 9)
	if err != nil {
		t.Fatal(err)
	}
	table := rerank.NewTable(c.dialects)
	costs := make([]float64, len(c.dialects))
	for i := range costs {
		costs[i] = float64(i%5) / 5
	}
	var ids []int
	for i := len(c.dialects) - 1; i >= 0; i -= 3 {
		ids = append(ids, i)
	}
	for _, nl := range c.questions {
		p := x.Prepare(nl)
		for _, workers := range []int{1, 3} {
			_, scores, err := model.RankTableContext(context.Background(), p, table, ids, nil, costs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for j, id := range ids {
				want := model.Net.Score(oracleFeatures(x, nl, c.dialects[id], nil, costs[id]))
				if math.Float64bits(scores[j]) != math.Float64bits(want) {
					t.Errorf("workers=%d %q entry %d: score %v, oracle %v", workers, nl, id, scores[j], want)
				}
			}
		}
	}
}

// TestTableSize keeps the per-candidate footprint of a realistic
// pool's table under 1 KiB.
func TestTableSize(t *testing.T) {
	for _, c := range tableCases(t)[1:] {
		table := rerank.NewTable(c.dialects)
		per := table.Bytes() / int64(table.Len())
		t.Logf("%s: %d candidates, %d bytes per candidate", c.name, table.Len(), per)
		if per > 1024 {
			t.Errorf("%s: %d bytes per candidate", c.name, per)
		}
	}
}
