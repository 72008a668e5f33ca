package rerank_test

import (
	"context"
	"math"
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

func TestFeatureShape(t *testing.T) {
	x := newExtractor()
	f := x.Features("who is the oldest employee", "Find the name of employee.")
	if len(f) != rerank.FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(f), rerank.FeatureDim)
	}
	for i, v := range f {
		if v != v { // NaN check
			t.Errorf("feature %d is NaN", i)
		}
	}
	// Empty inputs must not panic or produce NaN.
	f = x.Features("", "")
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
	fg := x.Features(nl, good)
	fb := x.Features(nl, bad)
	// The ordering-cue agreement feature (index 14) must separate them.
	if fg[14] <= fb[14] {
		t.Errorf("order cue feature does not separate: good %v bad %v", fg[14], fb[14])
	}
}

func TestSuperlativeAgreement(t *testing.T) {
	x := newExtractor()
	withCue := x.Features("the highest bonus", "Return the top one result in descending order of one bonus.")
	withoutCue := x.Features("the highest bonus", "Find the bonus of evaluation.")
	if withCue[10] != 1 {
		t.Errorf("superlative agreement should be 1: %v", withCue[10])
	}
	if withoutCue[10] != 0 {
		t.Errorf("superlative disagreement should be 0: %v", withoutCue[10])
	}
}

func trainingLists() []rerank.TrainingList {
	return []rerank.TrainingList{
		{
			NL: "who is the oldest employee",
			Dialects: []string{
				"Find the name of employee. Return the top one result in descending order of the age of employee.",
				"Find the name of employee.",
				"Find the number of employees.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "how many employees are there",
			Dialects: []string{
				"Find the number of employees.",
				"Find the age of employee.",
				"Find the name of employee. Return results only for employee that age is greater than value.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "employees older than 30",
			Dialects: []string{
				"Find the name of employee. Return results only for employee that age is greater than value.",
				"Find the name of employee.",
				"Find the number of employees.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "list employee ages",
			Dialects: []string{
				"Find the age of employee.",
				"Find the number of employees.",
				"Find the name of employee. Return the top one result in descending order of the age of employee.",
			},
			Labels: []float64{1, 0, 0},
		},
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
		order := m.Rank(l.NL, l.Dialects)
		if l.Labels[order[0]] == 1 {
			correct++
		}
	}
	if correct < 3 {
		t.Errorf("re-ranker got only %d/4 training lists right", correct)
	}
}

// TestPrepPathBitIdentical pins the amortized scoring path — prepared
// NL-side features plus precomputed dialect embeddings — to the legacy
// per-pair path, feature by feature and bit by bit. The translate hot
// path's determinism guarantee rests on this equivalence.
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
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	for _, nl := range nls {
		plain := x.Prepare(nl)
		withVec := x.PrepareVec(nl, x.Encoder.Encode(nl))
		for di, d := range dialects {
			want := x.Features(nl, d)
			for name, got := range map[string][]float64{
				"Prepare":            x.FeaturesPrep(plain, d, nil),
				"Prepare+dialVec":    x.FeaturesPrep(plain, d, dialVecs[di]),
				"PrepareVec+dialVec": x.FeaturesPrep(withVec, d, dialVecs[di]),
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

// TestScoreBatchMatchesScore pins batched (and parallel) scoring and
// ranking to the sequential per-pair API.
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
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	want := make([]float64, len(dialects))
	for i, d := range dialects {
		want[i] = m.Score(nl, d)
	}
	wantOrder := m.Rank(nl, dialects)
	for _, workers := range []int{1, 4} {
		order, scores, err := m.RankScoresContext(context.Background(), nl, dialects, dialVecs, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if scores[i] != want[i] {
				t.Errorf("workers=%d score %d: %v != %v", workers, i, scores[i], want[i])
			}
			if order[i] != wantOrder[i] {
				t.Errorf("workers=%d order %d: %d != %d", workers, i, order[i], wantOrder[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.RankScoresContext(ctx, nl, dialects, nil, nil, 2); err == nil {
		t.Error("cancelled rank must fail")
	}
}

func TestRankDeterministicAndComplete(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 5)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	dialects := []string{"a b c", "d e f", "a b d"}
	o1 := m.Rank("a b", dialects)
	o2 := m.Rank("a b", dialects)
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

// TestCostFeaturePath pins the cost-feature plumbing: ScorePrep is
// ScorePrepCost at zero cost, a non-zero cost lands in feature 19 and
// changes the score, and batched scoring with a costs slice matches the
// sequential per-pair path bit for bit.
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
	costs := []float64{0.2, 0.8, 0}
	p := x.Prepare(nl)

	for i, d := range dialects {
		f := x.FeaturesPrepCost(p, d, nil, costs[i])
		if got := f[19]; got != costs[i] {
			t.Errorf("feature 19 = %v, want cost %v", got, costs[i])
		}
		if got, want := m.ScorePrep(p, d, nil), m.ScorePrepCost(p, d, nil, 0); got != want {
			t.Errorf("ScorePrep %v != ScorePrepCost(0) %v", got, want)
		}
	}
	if m.ScorePrepCost(p, dialects[1], nil, 0.8) == m.ScorePrepCost(p, dialects[1], nil, 0) {
		t.Error("non-zero cost did not move the score")
	}

	batch, err := m.ScoreBatchContext(context.Background(), p, dialects, nil, costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dialects {
		if want := m.ScorePrepCost(p, d, nil, costs[i]); batch[i] != want {
			t.Errorf("batched score %d: %v != sequential %v", i, batch[i], want)
		}
	}
}

// TestTrainingFeaturesReadDialVecs: lists that carry their dialects'
// embeddings train on the features of lists that do not, bit for bit,
// and the cosine feature comes from the carried vectors.
func TestTrainingFeaturesReadDialVecs(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := trainingLists()
	withVecs := trainingLists()
	zeroed := trainingLists()
	for i := range withVecs {
		for _, d := range withVecs[i].Dialects {
			withVecs[i].DialVecs = append(withVecs[i].DialVecs, x.Encoder.Encode(d))
			zeroed[i].DialVecs = append(zeroed[i].DialVecs, vector.New(x.Encoder.Dim()))
		}
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
		}
	}
}
