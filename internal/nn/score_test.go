package nn

import (
	"math"
	"math/rand"
	"testing"
)

// referenceForward is the forward pass Score replaced, kept as its
// oracle: one output at a time, each summed from its bias in input
// order, ReLU on the hidden layers, a fresh slice per layer.
func referenceForward(m *MLP, x []float64) float64 {
	cur := x
	for l := range m.weights {
		out := make([]float64, m.sizes[l+1])
		for o := range out {
			s := m.biases[l][o]
			for i, v := range cur {
				s += m.weights[l][o][i] * v
			}
			if l+1 < len(m.weights) && s < 0 {
				s = 0
			}
			out[o] = s
		}
		cur = out
	}
	return cur[0]
}

// TestScoreMatchesReference checks Score bit for bit against the
// reference pass over random networks — widths that are and are not
// multiples of four, wider than the stack buffers, deeper than them —
// with random biases and inputs, so many pre-activations are negative.
func TestScoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nets := [][]int{{21, 24, 12, 1}, {1, 1}, {5, 3, 1}, {7, 9, 6, 2, 1}, {3, scoreWidth + 5, 4, 1}}
	deep := []int{4}
	for len(deep) <= scoreLayers+1 {
		deep = append(deep, 6)
	}
	nets = append(nets, append(deep, 1))
	negative := 0
	for ni, sizes := range nets {
		m, err := NewMLP(sizes, int64(ni))
		if err != nil {
			t.Fatal(err)
		}
		for l := range m.biases {
			for o := range m.biases[l] {
				m.biases[l][o] = rng.NormFloat64()
			}
		}
		for trial := 0; trial < 2000; trial++ {
			x := make([]float64, sizes[0])
			for i := range x {
				x[i] = rng.NormFloat64() * 3
			}
			got, want := m.Score(x), referenceForward(m, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("net %v trial %d: Score %v, reference %v", sizes, trial, got, want)
			}
			if want < 0 {
				negative++
			}
		}
	}
	if negative == 0 {
		t.Fatal("no negative output: the nets never exercised negative pre-activations")
	}
}

// TestScoreAllocatesNothing pins the re-ranker's network shape to a
// forward pass on stack buffers.
func TestScoreAllocatesNothing(t *testing.T) {
	m, err := NewMLP([]int{21, 24, 12, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 21)
	if n := testing.AllocsPerRun(100, func() { m.Score(x) }); n != 0 {
		t.Fatalf("Score allocates %.0f times per call", n)
	}
}
