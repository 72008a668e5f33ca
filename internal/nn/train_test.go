package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The reference list step is the one TrainListwise replaced, kept as
// its oracle: activations per example and gradients per list freshly
// allocated, each propagated delta summed input by input down the
// weight columns, and Adam as the network has always applied it.

func referenceTrainListwise(m *MLP, lists []List, cfg TrainConfig) []float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR == 0 {
		cfg.LR = 0.003
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		var n int
		for _, li := range order {
			l := lists[li]
			if len(l.Features) == 0 {
				continue
			}
			sum += referenceListStep(m, l, cfg.LR)
			n++
		}
		if n > 0 {
			sum /= float64(n)
		}
		losses = append(losses, sum)
	}
	return losses
}

func referenceListStep(m *MLP, l List, lr float64) float64 {
	n := len(l.Features)
	actsAll := make([][][]float64, n)
	scores := make([]float64, n)
	for i, x := range l.Features {
		acts := make([][]float64, len(m.weights)+1)
		acts[0] = x
		cur := x
		for li := range m.weights {
			out := make([]float64, m.sizes[li+1])
			for o := range out {
				s := m.biases[li][o]
				for j, v := range cur {
					s += m.weights[li][o][j] * v
				}
				if li+1 < len(m.weights) && s < 0 {
					s = 0
				}
				out[o] = s
			}
			acts[li+1] = out
			cur = out
		}
		actsAll[i] = acts
		scores[i] = cur[0]
	}
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	pred := make([]float64, n)
	var psum float64
	for i, s := range scores {
		pred[i] = math.Exp(s - maxS)
		psum += pred[i]
	}
	for i := range pred {
		pred[i] /= psum
	}
	target := make([]float64, len(l.Labels))
	var lsum float64
	for _, v := range l.Labels {
		if v > 0 {
			lsum += v
		}
	}
	for i, v := range l.Labels {
		switch {
		case lsum == 0:
			target[i] = 1 / float64(len(l.Labels))
		case v > 0:
			target[i] = v / lsum
		}
	}
	var loss float64
	for i := range pred {
		if target[i] > 0 {
			loss -= target[i] * math.Log(pred[i]+1e-12)
		}
	}
	gw := make([][][]float64, len(m.weights))
	gb := make([][]float64, len(m.weights))
	for li := range m.weights {
		gw[li] = make([][]float64, len(m.weights[li]))
		for o := range gw[li] {
			gw[li][o] = make([]float64, len(m.weights[li][o]))
		}
		gb[li] = make([]float64, len(m.biases[li]))
	}
	for e := range pred {
		acts := actsAll[e]
		delta := []float64{pred[e] - target[e]}
		for li := len(m.weights) - 1; li >= 0; li-- {
			in := acts[li]
			for o, d := range delta {
				gb[li][o] += d
				for j, v := range in {
					gw[li][o][j] += d * v
				}
			}
			if li == 0 {
				break
			}
			prev := make([]float64, len(in))
			for j := range prev {
				var s float64
				for o, d := range delta {
					s += d * m.weights[li][o][j]
				}
				if in[j] <= 0 {
					s = 0
				}
				prev[j] = s
			}
			delta = prev
		}
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	m.step++
	bc1 := 1 - math.Pow(beta1, float64(m.step))
	bc2 := 1 - math.Pow(beta2, float64(m.step))
	for li := range m.weights {
		for o := range m.weights[li] {
			for j := range m.weights[li][o] {
				grad := gw[li][o][j]
				m.mW[li][o][j] = beta1*m.mW[li][o][j] + (1-beta1)*grad
				m.vW[li][o][j] = beta2*m.vW[li][o][j] + (1-beta2)*grad*grad
				m.weights[li][o][j] -= lr * (m.mW[li][o][j] / bc1) / (math.Sqrt(m.vW[li][o][j]/bc2) + eps)
			}
			grad := gb[li][o]
			m.mB[li][o] = beta1*m.mB[li][o] + (1-beta1)*grad
			m.vB[li][o] = beta2*m.vB[li][o] + (1-beta2)*grad*grad
			m.biases[li][o] -= lr * (m.mB[li][o] / bc1) / (math.Sqrt(m.vB[li][o]/bc2) + eps)
		}
	}
	return loss
}

// randomLists draws count lists of up to maxLen entries over dim
// features: graded, one-hot and all-zero labels, single-entry lists
// and empty ones, with features of both signs.
func randomLists(rng *rand.Rand, count, maxLen, dim int) []List {
	lists := make([]List, count)
	for i := range lists {
		n := rng.Intn(maxLen + 1)
		if i%7 == 0 {
			n = 1
		}
		l := List{Features: make([][]float64, n), Labels: make([]float64, n)}
		for j := range l.Features {
			x := make([]float64, dim)
			for k := range x {
				x[k] = rng.NormFloat64() * 2
			}
			l.Features[j] = x
		}
		switch i % 4 {
		case 0: // one relevant entry
			if n > 0 {
				l.Labels[rng.Intn(n)] = 1
			}
		case 1: // graded
			for j := range l.Labels {
				l.Labels[j] = float64(rng.Intn(3)) / 2
			}
		case 2: // all zero: a uniform target
		case 3: // negative labels count as zero
			for j := range l.Labels {
				l.Labels[j] = rng.Float64()*2 - 1
			}
		}
		lists[i] = l
	}
	return lists
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTrainListwiseMatchesReference trains twin networks, one with
// TrainListwise and one with the reference step, and requires every
// weight, bias, Adam moment, the step count and every epoch's loss to
// agree bit for bit — over widths that are and are not multiples of
// four, networks deeper than three layers, and lists that are graded,
// all zero, a single entry or empty.
func TestTrainListwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nets := [][]int{{21, 24, 12, 1}, {1, 1}, {5, 3, 1}, {7, 9, 6, 2, 1}, {6, 13, 5, 8, 3, 7, 1}, {4, 4, 4, 4, 1}}
	for ni, sizes := range nets {
		got, err := NewMLP(sizes, int64(ni))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewMLP(sizes, int64(ni))
		for l := range got.biases {
			for o := range got.biases[l] {
				b := rng.NormFloat64() * 0.5
				got.biases[l][o], want.biases[l][o] = b, b
			}
		}
		lists := randomLists(rng, 9+ni, 12, sizes[0])
		lists = append(lists, List{})
		cfg := TrainConfig{Epochs: 7, LR: 0.01, Seed: int64(ni)}
		gotLoss := got.TrainListwise(lists, cfg)
		wantLoss := referenceTrainListwise(want, lists, cfg)
		sameBits(t, "loss", gotLoss, wantLoss)
		if got.step != want.step {
			t.Fatalf("net %v: step %d, want %d", sizes, got.step, want.step)
		}
		for l := range got.weights {
			for o := range got.weights[l] {
				sameBits(t, "weight", got.weights[l][o], want.weights[l][o])
				sameBits(t, "mW", got.mW[l][o], want.mW[l][o])
				sameBits(t, "vW", got.vW[l][o], want.vW[l][o])
			}
			sameBits(t, "bias", got.biases[l], want.biases[l])
			sameBits(t, "mB", got.mB[l], want.mB[l])
			sameBits(t, "vB", got.vB[l], want.vB[l])
		}
	}
}

// TestTrainListwiseAllocs: a call allocates its buffers once, so its
// allocation count is the same for one epoch over two lists as for
// twelve epochs over forty.
func TestTrainListwiseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lists := randomLists(rng, 40, 30, 21)
	m, err := NewMLP([]int{21, 24, 12, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := testing.AllocsPerRun(5, func() { m.TrainListwise(lists[:2], TrainConfig{Epochs: 1}) })
	large := testing.AllocsPerRun(5, func() { m.TrainListwise(lists, TrainConfig{Epochs: 12}) })
	if small != large {
		t.Fatalf("TrainListwise allocates %.0f times for 1 epoch over 2 lists, %.0f for 12 over 40", small, large)
	}
}
