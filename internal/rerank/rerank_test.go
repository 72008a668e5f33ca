package rerank_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/text"
	"repro/internal/vector"
)

func newExtractor() *rerank.Extractor {
	corpus := []string{
		"Find the name of employee.",
		"Find the age of employee.",
		"Find the number of employees.",
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the name of employee. Return results only for employee that age is greater than value.",
	}
	enc := embed.NewEncoder(embed.Config{Seed: 1})
	enc.FitIDF(corpus)
	return &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: enc}
}

// features computes the features of one (question, dialect) pair over
// a one-entry table, with no precomputed embedding and a zero cost.
func features(x *rerank.Extractor, nl, dial string) []float64 {
	return x.FeaturesAt(x.Match(x.Prepare(nl), rerank.NewTable([]string{dial})), 0, nil, 0)
}

// rank ranks entries ids of table t for the question.
func rank(t *testing.T, m *rerank.Model, nl string, table *rerank.Table, ids []int, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64) {
	t.Helper()
	order, scores, err := m.RankTableContext(context.Background(), m.X.Prepare(nl), table, ids, dialVecs, costs, workers)
	if err != nil {
		t.Fatal(err)
	}
	return order, scores
}

// allIDs lists every entry of a table over n dialects.
func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestFeatureShape(t *testing.T) {
	x := newExtractor()
	f := features(x, "who is the oldest employee", "Find the name of employee.")
	if len(f) != rerank.FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(f), rerank.FeatureDim)
	}
	for i, v := range f {
		if v != v { // NaN check
			t.Errorf("feature %d is NaN", i)
		}
	}
	// Empty inputs must not panic or produce NaN.
	f = features(x, "", "")
	for i, v := range f {
		if v != v {
			t.Errorf("empty-input feature %d is NaN", i)
		}
	}
}

func TestFeaturesFavorMatchingDialect(t *testing.T) {
	x := newExtractor()
	nl := "who is the oldest employee"
	good := "Find the name of employee. Return the top one result in descending order of the age of employee."
	bad := "Find the number of employees."
	fg := features(x, nl, good)
	fb := features(x, nl, bad)
	// The ordering-cue agreement feature (index 14) must separate them.
	if fg[14] <= fb[14] {
		t.Errorf("order cue feature does not separate: good %v bad %v", fg[14], fb[14])
	}
}

func TestSuperlativeAgreement(t *testing.T) {
	x := newExtractor()
	withCue := features(x, "the highest bonus", "Return the top one result in descending order of one bonus.")
	withoutCue := features(x, "the highest bonus", "Find the bonus of evaluation.")
	if withCue[10] != 1 {
		t.Errorf("superlative agreement should be 1: %v", withCue[10])
	}
	if withoutCue[10] != 0 {
		t.Errorf("superlative disagreement should be 0: %v", withoutCue[10])
	}
}

// trainPool is the candidate pool the training lists are drawn from.
var trainPool = []string{
	"Find the name of employee. Return the top one result in descending order of the age of employee.",
	"Find the name of employee.",
	"Find the number of employees.",
	"Find the age of employee.",
	"Find the name of employee. Return results only for employee that age is greater than value.",
}

// trainingLists draws four lists from one table over trainPool, each
// with its positive first.
func trainingLists() []rerank.TrainingList {
	table := rerank.NewTable(trainPool)
	list := func(nl string, ids ...int) rerank.TrainingList {
		return rerank.TrainingList{NL: nl, Table: table, IDs: ids, Labels: []float64{1, 0, 0}}
	}
	return []rerank.TrainingList{
		list("who is the oldest employee", 0, 1, 2),
		list("how many employees are there", 2, 3, 4),
		list("employees older than 30", 4, 1, 2),
		list("list employee ages", 3, 2, 0),
	}
}

func TestTrainAndRank(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 2)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	lists := trainingLists()
	losses := m.Train(lists, nn.TrainConfig{Epochs: 30, LR: 0.01, Seed: 3})
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("training loss did not decrease: %v...%v", losses[0], losses[len(losses)-1])
	}
	correct := 0
	for _, l := range lists {
		order, _ := rank(t, m, l.NL, l.Table, l.IDs, nil, nil, 1)
		if l.Labels[order[0]] == 1 {
			correct++
		}
	}
	if correct < 3 {
		t.Errorf("re-ranker got only %d/4 training lists right", correct)
	}
}

// TestPrepPathBitIdentical pins the amortized scoring path — a
// question prepared with its cached embedding plus precomputed dialect
// embeddings — to the plain path that encodes both sides on the spot,
// feature by feature and bit by bit, the empty question and the empty
// dialect included. The translate hot path's determinism guarantee
// rests on this equivalence.
func TestPrepPathBitIdentical(t *testing.T) {
	x := newExtractor()
	nls := []string{
		"who is the oldest employee",
		"employees older than 30",
		"",
		"how many employees are there",
	}
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the number of employees.",
		"",
		"Find the name of employee. Return results only for employee that age is greater than value.",
	}
	table := rerank.NewTable(dialects)
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	for _, nl := range nls {
		plain := x.Match(x.Prepare(nl), table)
		withVec := x.Match(x.PrepareVec(nl, x.Encoder.Encode(nl)), table)
		for di, d := range dialects {
			want := x.FeaturesAt(plain, di, nil, 0)
			for name, got := range map[string][]float64{
				"one-entry table":    features(x, nl, d),
				"Prepare+dialVec":    x.FeaturesAt(plain, di, dialVecs[di], 0),
				"PrepareVec+dialVec": x.FeaturesAt(withVec, di, dialVecs[di], 0),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s: dim %d vs %d", name, len(got), len(want))
				}
				for fi := range want {
					if got[fi] != want[fi] {
						t.Errorf("nl=%q dial=%q %s feature %d: %v != %v",
							nl, d, name, fi, got[fi], want[fi])
					}
				}
			}
		}
	}
}

// TestScoreBatchMatchesScore pins table ranking, sequential and fanned
// out, and RankScoresPrepContext's ranking of raw dialects to the
// per-pair Score, and checks that an empty entry list ranks nothing and
// a cancelled context aborts the ranking.
func TestScoreBatchMatchesScore(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 7)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	nl := "who is the oldest employee"
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the name of employee.",
		"Find the number of employees.",
		"Find the age of employee.",
	}
	table := rerank.NewTable(dialects)
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	want := make([]float64, len(dialects))
	for i, d := range dialects {
		want[i] = m.Score(nl, d)
	}
	wantOrder, _ := rank(t, m, nl, table, allIDs(len(dialects)), nil, nil, 1)
	for _, workers := range []int{1, 2, 4} {
		order, scores := rank(t, m, nl, table, allIDs(len(dialects)), dialVecs, nil, workers)
		rawOrder, rawScores, err := m.RankScoresPrepContext(context.Background(), x.Prepare(nl), dialects, dialVecs, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if scores[i] != want[i] || rawScores[i] != want[i] {
				t.Errorf("workers=%d score %d: %v over the table, %v over raw dialects, want %v", workers, i, scores[i], rawScores[i], want[i])
			}
			if order[i] != wantOrder[i] || rawOrder[i] != wantOrder[i] {
				t.Errorf("workers=%d order %d: %d over the table, %d over raw dialects, want %d", workers, i, order[i], rawOrder[i], wantOrder[i])
			}
		}
	}
	if order, scores := rank(t, m, nl, table, nil, nil, nil, 2); len(order) != 0 || len(scores) != 0 {
		t.Errorf("no entries ranked as %v, %v", order, scores)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.RankTableContext(ctx, x.Prepare(nl), table, allIDs(len(dialects)), nil, nil, 2); err == nil {
		t.Error("cancelled rank must fail")
	}
}

func TestRankDeterministicAndComplete(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 5)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	table := rerank.NewTable([]string{"a b c", "d e f", "a b d"})
	o1, _ := rank(t, m, "a b", table, allIDs(3), nil, nil, 1)
	o2, _ := rank(t, m, "a b", table, allIDs(3), nil, nil, 1)
	if len(o1) != 3 {
		t.Fatalf("rank returned %d indexes", len(o1))
	}
	seen := map[int]bool{}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("rank not deterministic")
		}
		seen[o1[i]] = true
	}
	if len(seen) != 3 {
		t.Error("rank is not a permutation")
	}
}

// TestCostFeaturePath pins the cost-feature plumbing: a non-zero cost
// lands in feature 19 and changes the score, a zero cost is no costs
// slice, and fanned-out ranking with a costs slice matches the
// per-pair path bit for bit.
func TestCostFeaturePath(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 11)
	if err != nil {
		t.Fatal(err)
	}
	nl := "who is the oldest employee"
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the number of employees.",
		"Find the age of employee.",
	}
	table := rerank.NewTable(dialects)
	costs := []float64{0.2, 0.8, 0}
	match := x.Match(x.Prepare(nl), table)

	for i := range dialects {
		if got := x.FeaturesAt(match, i, nil, costs[i])[19]; got != costs[i] {
			t.Errorf("feature 19 = %v, want cost %v", got, costs[i])
		}
	}
	if m.Net.Score(x.FeaturesAt(match, 1, nil, 0.8)) == m.Net.Score(x.FeaturesAt(match, 1, nil, 0)) {
		t.Error("non-zero cost did not move the score")
	}
	_, none := rank(t, m, nl, table, allIDs(len(dialects)), nil, nil, 1)
	_, zero := rank(t, m, nl, table, allIDs(len(dialects)), nil, make([]float64, len(dialects)), 1)
	_, batch := rank(t, m, nl, table, allIDs(len(dialects)), nil, costs, 4)
	for i := range dialects {
		if zero[i] != none[i] {
			t.Errorf("score %d: %v with zero costs, %v with none", i, zero[i], none[i])
		}
		if want := m.Net.Score(x.FeaturesAt(match, i, nil, costs[i])); batch[i] != want {
			t.Errorf("batched score %d: %v != sequential %v", i, batch[i], want)
		}
	}
}

// TestTrainingFeaturesReadDialVecs: lists that carry their table's
// embeddings train on the features of lists that do not, bit for bit,
// the cosine feature comes from the carried vectors, and each entry's
// features are its table entry's.
func TestTrainingFeaturesReadDialVecs(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := trainingLists()
	withVecs := trainingLists()
	zeroed := trainingLists()
	vecs := make([]vector.Vec, len(trainPool))
	zeros := make([]vector.Vec, len(trainPool))
	for i, d := range trainPool {
		vecs[i], zeros[i] = x.Encoder.Encode(d), vector.New(x.Encoder.Dim())
	}
	for i := range withVecs {
		withVecs[i].DialVecs, zeroed[i].DialVecs = vecs, zeros
	}
	want, got, zero := m.TrainingFeatures(plain), m.TrainingFeatures(withVecs), m.TrainingFeatures(zeroed)
	for i := range want {
		for j := range want[i].Features {
			for k, v := range want[i].Features[j] {
				if math.Float64bits(got[i].Features[j][k]) != math.Float64bits(v) {
					t.Fatalf("list %d entry %d feature %d: %v with carried embeddings, %v encoding", i, j, k, got[i].Features[j][k], v)
				}
			}
			if zero[i].Features[j][18] != 0 || want[i].Features[j][18] == 0 {
				t.Fatalf("list %d entry %d: cosine %v from zero embeddings, %v encoding", i, j, zero[i].Features[j][18], want[i].Features[j][18])
			}
			l := plain[i]
			if f := features(x, l.NL, trainPool[l.IDs[j]]); !slices.Equal(f, want[i].Features[j]) {
				t.Fatalf("list %d entry %d: features %v, entry %d's own %v", i, j, want[i].Features[j], l.IDs[j], f)
			}
		}
	}
}
