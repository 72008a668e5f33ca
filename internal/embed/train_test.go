package embed

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vector"
)

// referenceTrain is the training loop Train replaced, kept as its
// oracle: every step tokenizes, hashes and builds the n-grams of its
// three texts again and allocates its vectors afresh.
func referenceTrain(e *Encoder, triplets []Triplet, cfg TrainConfig) []float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	losses := make([]float64, 0, cfg.Epochs)
	order := make([]int, len(triplets))
	for i := range order {
		order[i] = i
	}
	pool := func(fs []feature) (vector.Vec, float32) {
		v := vector.New(e.cfg.Dim)
		var total float32
		for _, f := range fs {
			vector.Axpy(v, f.weight, e.emb[f.bucket])
			total += f.weight
		}
		if total > 0 {
			vector.Scale(v, 1/total)
		}
		return v, total
	}
	unitOf := func(v vector.Vec, n float32) vector.Vec {
		out := vector.Clone(v)
		vector.Scale(out, 1/n)
		return out
	}
	step := func(t Triplet, lr float32) float32 {
		fa, fp, fn := e.features(t.Anchor), e.features(t.Positive), e.features(t.Negative)
		va, wa := pool(fa)
		vp, wp := pool(fp)
		vn, wn := pool(fn)
		na, np, nn := vector.Norm(va), vector.Norm(vp), vector.Norm(vn)
		if na == 0 || np == 0 || nn == 0 {
			return 0
		}
		ua, up, un := unitOf(va, na), unitOf(vp, np), unitOf(vn, nn)
		loss := e.cfg.Margin - vector.Dot(ua, up) + vector.Dot(ua, un)
		if loss <= 0 {
			return 0
		}
		ga := vector.Clone(un)
		vector.Axpy(ga, -1, up)
		e.backprop(fa, ga, wa*na, lr)
		gp := vector.Clone(ua)
		vector.Scale(gp, -1)
		e.backprop(fp, gp, wp*np, lr)
		e.backprop(fn, vector.Clone(ua), wn*nn, lr)
		return loss
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LR / float32(1+ep)
		var sum float64
		for _, idx := range order {
			sum += float64(step(triplets[idx], lr))
		}
		if len(triplets) > 0 {
			sum /= float64(len(triplets))
		}
		losses = append(losses, sum)
	}
	return losses
}

// TestEncoderTrainMatchesReference trains twin encoders, one with
// Train and one with the reference loop, and requires the embedding
// table and every epoch's loss to agree bit for bit: with and without
// a fitted IDF, over triplets that share anchors and positives, a text
// that pools to nothing (stopwords only), and a small bucket count so
// a triplet's texts collide on rows.
func TestEncoderTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := strings.Fields("employee name age city salary highest count each order department manager " +
		"flight airline airport source destination number total average the of a which show list find")
	phrase := func() string {
		n := 1 + rng.Intn(9)
		ws := make([]string, n)
		for i := range ws {
			ws[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(ws, " ")
	}
	var triplets []Triplet
	var corpus []string
	for q := 0; q < 25; q++ {
		anchor, pos := phrase(), phrase()
		corpus = append(corpus, anchor, pos)
		for n := 0; n < 4; n++ {
			triplets = append(triplets, Triplet{Anchor: anchor, Positive: pos, Negative: phrase()})
		}
	}
	triplets = append(triplets, Triplet{Anchor: "the of a", Positive: "employee", Negative: "city"})
	for _, cfg := range []Config{{Seed: 3}, {Seed: 4, Buckets: 97, Dim: 19}} {
		for _, fit := range []bool{false, true} {
			got, want := NewEncoder(cfg), NewEncoder(cfg)
			if fit {
				got.FitIDF(corpus)
				want.FitIDF(corpus)
			}
			tc := TrainConfig{Epochs: 6, LR: 0.2}
			gotLoss, wantLoss := got.Train(triplets, tc), referenceTrain(want, triplets, tc)
			if len(gotLoss) != len(wantLoss) {
				t.Fatalf("%d epoch losses, want %d", len(gotLoss), len(wantLoss))
			}
			for i := range gotLoss {
				if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
					t.Fatalf("cfg %+v idf=%v: epoch %d loss %v, want %v", cfg, fit, i, gotLoss[i], wantLoss[i])
				}
			}
			if gotLoss[0] == 0 {
				t.Fatalf("cfg %+v idf=%v: no triplet violated the margin", cfg, fit)
			}
			for b := range got.emb {
				for d := range got.emb[b] {
					if math.Float32bits(got.emb[b][d]) != math.Float32bits(want.emb[b][d]) {
						t.Fatalf("cfg %+v idf=%v: emb[%d][%d] = %v, want %v", cfg, fit, b, d, got.emb[b][d], want.emb[b][d])
					}
				}
			}
		}
	}
}
