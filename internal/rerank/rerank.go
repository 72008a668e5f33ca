// Package rerank implements GAR's second-stage re-ranking model
// (§III-C2). The paper fine-tunes a RoBERTa cross-encoder with a
// listwise NeuralNDCG objective; this package substitutes a feed-forward
// network over cross-pair interaction features (lexical overlap, IDF
// weighted coverage, n-gram and character similarity, length and value
// signals, and the retrieval encoder's cosine) trained with the ListNet
// listwise objective — same role: fine-grained relevance scoring of
// (NL query, dialect expression) pairs, trained per query list.
package rerank

import (
	"context"
	"strings"

	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/text"
	"repro/internal/vector"
)

// FeatureDim is the size of the cross-pair feature vector.
const FeatureDim = 21

// Extractor computes cross-pair features. The IDF statistics come from
// the dialect corpus; the encoder contributes its learned similarity.
type Extractor struct {
	IDF     *text.IDF
	Encoder *embed.Encoder
}

// superlatives are NL markers that align with ORDER BY ... LIMIT 1
// dialect phrases; mirrored against the dialect template vocabulary.
var superlatives = map[string]bool{
	"most": true, "highest": true, "largest": true, "biggest": true,
	"maximum": true, "max": true, "top": true, "best": true,
	"fewest": true, "lowest": true, "smallest": true, "minimum": true,
	"min": true, "least": true, "youngest": true, "oldest": true,
	"longest": true, "shortest": true, "earliest": true, "latest": true,
}

var negations = map[string]bool{
	"not": true, "no": true, "never": true, "without": true,
	"except": true, "exclude": true, "excluding": true,
}

var aggregates = map[string]bool{
	"number": true, "count": true, "many": true, "total": true,
	"sum": true, "average": true, "mean": true, "maximum": true,
	"minimum": true, "highest": true, "lowest": true,
}

// Prep caches every NL-side artifact of the features that does not
// depend on the candidate list — tokenizations, packed character
// trigrams, cue and marker flags, and the query embedding — so scoring
// a question against k retrieved candidates pays the NL-side cost once
// instead of k times. A Prep is immutable after Prepare and safe to
// share across concurrent scoring workers.
type Prep struct {
	toks    []string
	content []string
	// grams is the sorted unique set of packed character trigrams of
	// the content tokens.
	grams []uint32

	hasSuper, hasNeg, hasAgg       bool
	groupCue, orderCue, compareCue bool
	// vec is the query embedding under the extractor's encoder; nil
	// when the extractor has no encoder.
	vec vector.Vec
}

// Prepare computes the NL-side feature artifacts for one question.
func (x *Extractor) Prepare(nl string) *Prep {
	var vec vector.Vec
	if x.Encoder != nil {
		vec = x.Encoder.Encode(nl)
	}
	return x.PrepareVec(nl, vec)
}

// PrepareVec is Prepare with a precomputed query embedding (the exact
// value x.Encoder.Encode(nl) would return), letting callers that
// already encoded the question — retrieval did, or a cache holds it —
// skip the second encode.
func (x *Extractor) PrepareVec(nl string, vec vector.Vec) *Prep {
	toks := text.Tokenize(nl)
	content := text.CanonTokens(nl)
	var grams []uint32
	for _, c := range content {
		grams = appendGrams(grams, c)
	}
	return &Prep{
		toks:       toks,
		content:    content,
		grams:      sortUnique(grams),
		hasSuper:   hasAny(toks, superlatives),
		hasNeg:     hasAny(toks, negations),
		hasAgg:     hasAny(toks, aggregates),
		groupCue:   hasGroupCue(nl),
		orderCue:   hasOrderCue(nl),
		compareCue: hasCompareCue(nl),
		vec:        vec,
	}
}

// Features computes the feature vector for one (NL, dialect) pair.
func (x *Extractor) Features(nl, dial string) []float64 {
	return x.FeaturesPrep(x.Prepare(nl), dial, nil)
}

// FeaturesPrep computes the feature vector for one prepared question
// against one candidate dialect, with a zero cost feature. dialVec,
// when non-nil, must be the encoder embedding of dial (pipelines
// precompute one per pool candidate at snapshot-build time); nil falls
// back to encoding dial on the spot. Either way the resulting features
// are bit-identical to Features(nl, dial) — the determinism suite
// depends on that.
func (x *Extractor) FeaturesPrep(p *Prep, dial string, dialVec vector.Vec) []float64 {
	return x.FeaturesPrepCost(p, dial, dialVec, 0)
}

// FeaturesPrepCost is FeaturesPrep with the candidate's estimated-cost
// feature (execguide.CostFeature of its SQL, normalized to [0,1); 0
// when no cost signal is available). The cost is a static property of
// the candidate, so pipelines compute it once per pool entry. It runs
// the table's pair math over a one-entry table.
func (x *Extractor) FeaturesPrepCost(p *Prep, dial string, dialVec vector.Vec, cost float64) []float64 {
	return x.FeaturesAt(x.Match(p, NewTable([]string{dial})), 0, dialVec, cost)
}

func lengthRatio(a, b int) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return float64(a) / float64(b)
}

func hasAny(tokens []string, set map[string]bool) bool {
	for _, t := range tokens {
		if set[t] {
			return true
		}
	}
	return false
}

func hasGroupCue(s string) bool {
	ls := strings.ToLower(s)
	return strings.Contains(ls, "for each") || strings.Contains(ls, " per ") ||
		strings.Contains(ls, "each ") || strings.Contains(ls, "for every")
}

func hasOrderCue(s string) bool {
	ls := strings.ToLower(s)
	for _, cue := range []string{"order of", "sorted", "sort ", "ordered", "alphabetical",
		"ascending", "descending", "highest", "lowest", "most", "fewest", "largest",
		"smallest", "top ", "best", "oldest", "youngest", "longest", "shortest"} {
		if strings.Contains(ls, cue) {
			return true
		}
	}
	return false
}

func hasCompareCue(s string) bool {
	ls := strings.ToLower(s)
	for _, cue := range []string{"more than", "less than", "greater than", "at least",
		"at most", "above", "below", "over ", "under ", "exceed"} {
		if strings.Contains(ls, cue) {
			return true
		}
	}
	return false
}

func boolFeat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Model is the trained re-ranking model.
type Model struct {
	X   *Extractor
	Net *nn.MLP
}

// New builds an untrained re-ranker with the standard architecture
// (FeatureDim → 24 → 12 → 1).
func New(x *Extractor, seed int64) (*Model, error) {
	net, err := nn.NewMLP([]int{FeatureDim, 24, 12, 1}, seed)
	if err != nil {
		return nil, err
	}
	return &Model{X: x, Net: net}, nil
}

// Score returns the relevance score of a (NL, dialect) pair.
func (m *Model) Score(nl, dial string) float64 {
	return m.Net.Score(m.X.Features(nl, dial))
}

// ScorePrep scores one prepared question against one candidate.
// dialVec, when non-nil, must be the encoder embedding of dial. The
// score is bit-identical to Score(nl, dial).
func (m *Model) ScorePrep(p *Prep, dial string, dialVec vector.Vec) float64 {
	return m.ScorePrepCost(p, dial, dialVec, 0)
}

// ScorePrepCost is ScorePrep with the candidate's estimated-cost
// feature.
func (m *Model) ScorePrepCost(p *Prep, dial string, dialVec vector.Vec, cost float64) float64 {
	return m.Net.Score(m.X.FeaturesPrepCost(p, dial, dialVec, cost))
}

// ScoreBatchContext scores the prepared question against every
// candidate, fanning the forward passes across workers (0 means one
// per CPU). dialVecs and costs are each either nil or aligned with
// dialects (nil costs scores every pair with a zero cost feature).
// scores[i] is bit-identical to the sequential per-pair score
// regardless of the worker count — each score depends only on its own
// (Prep, dialect, cost) triple.
func (m *Model) ScoreBatchContext(ctx context.Context, p *Prep, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]float64, error) {
	_, scores, err := m.RankScoresPrepContext(ctx, p, dialects, dialVecs, costs, workers)
	return scores, err
}

// RankScoresPrepContext ranks the candidates for a prepared question
// and returns both the descending-score index order and the raw score
// per original candidate index, so callers never re-score a candidate
// they already ranked. It builds a feature table over dialects and
// ranks every entry; pipelines that hold a per-snapshot table call
// RankTableContext directly.
func (m *Model) RankScoresPrepContext(ctx context.Context, p *Prep, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	ids := make([]int, len(dialects))
	for i := range ids {
		ids[i] = i
	}
	return m.RankTableContext(ctx, p, NewTable(dialects), ids, dialVecs, costs, workers)
}

// RankScoresContext is RankScoresPrepContext over a raw NL question.
func (m *Model) RankScoresContext(ctx context.Context, nl string, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	return m.RankScoresPrepContext(ctx, m.X.Prepare(nl), dialects, dialVecs, costs, workers)
}

// rankOrder returns candidate indexes in descending score order using
// an insertion sort that is stable by original index, so exact score
// ties rank deterministically no matter how the scores were produced.
func rankOrder(scores []float64) []int {
	type scored struct {
		idx   int
		score float64
	}
	s := make([]scored, len(scores))
	for i, sc := range scores {
		s[i] = scored{idx: i, score: sc}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].score > s[j-1].score; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := make([]int, len(s))
	for i, sc := range s {
		out[i] = sc.idx
	}
	return out
}

// TrainingList is one listwise group: an NL query with candidate
// dialects and their binary (or graded) relevance labels. Costs, when
// non-nil, must align with Dialects and carries each candidate's
// estimated-cost feature, so training sees the same inputs serving
// will. DialVecs, when non-nil, must align with Dialects and hold each
// dialect's embedding under the extractor's encoder (the pool vectors
// retrieval already computed); nil encodes every dialect on the spot,
// to the same features.
type TrainingList struct {
	NL       string
	Dialects []string
	Labels   []float64
	Costs    []float64
	DialVecs []vector.Vec
}

// Train fits the model on listwise groups: TrainingFeatures, then the
// network's listwise training.
func (m *Model) Train(lists []TrainingList, cfg nn.TrainConfig) []float64 {
	return m.Net.TrainListwise(m.TrainingFeatures(lists), cfg)
}

// TrainingFeatures computes the network's input lists from listwise
// groups. Each list's dialects get one feature table, so a list pays
// the dialect side once per candidate, exactly as serving does.
func (m *Model) TrainingFeatures(lists []TrainingList) []nn.List {
	nnLists := make([]nn.List, 0, len(lists))
	for _, l := range lists {
		list := nn.List{Labels: l.Labels}
		match := m.X.Match(m.X.Prepare(l.NL), NewTable(l.Dialects))
		for i := range l.Dialects {
			var cost float64
			if l.Costs != nil {
				cost = l.Costs[i]
			}
			var dialVec vector.Vec
			if l.DialVecs != nil {
				dialVec = l.DialVecs[i]
			}
			list.Features = append(list.Features, m.X.FeaturesAt(match, i, dialVec, cost))
		}
		nnLists = append(nnLists, list)
	}
	return nnLists
}

// Rank scores all candidates for the NL query and returns the indexes in
// descending score order.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over RankContext; the fresh root context and the dropped error are the legacy signature
func (m *Model) Rank(nl string, dialects []string) []int {
	order, _ := m.RankContext(context.Background(), nl, dialects)
	return order
}

// RankContext is Rank with cancellation: the context is checked around
// every forward pass, so a deadline set over a large candidate list
// aborts mid-scoring instead of completing the full scan.
func (m *Model) RankContext(ctx context.Context, nl string, dialects []string) ([]int, error) {
	order, _, err := m.RankScoresContext(ctx, nl, dialects, nil, nil, 1)
	return order, err
}
