// Package nn implements the small feed-forward scoring network used by
// GAR's second-stage re-ranking model: fully-connected layers with ReLU
// activations, Adam optimization, and the listwise softmax
// cross-entropy objective (ListNet) — the same family of listwise
// losses as the NeuralNDCG objective the paper trains with.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// MLP is a fully-connected network with ReLU hidden layers and a single
// linear output.
type MLP struct {
	sizes   []int
	weights [][][]float64 // layer → out → in
	biases  [][]float64   // layer → out

	// Adam state.
	mW, vW [][][]float64
	mB, vB [][]float64
	step   int
}

// NewMLP builds a network with the given layer sizes; the last size must
// be 1 (a scalar score) and every size must be positive. Weights use
// scaled uniform initialization.
func NewMLP(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 || sizes[len(sizes)-1] != 1 {
		return nil, fmt.Errorf("nn: MLP needs at least [in, 1] sizes with scalar output, got %v", sizes)
	}
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("nn: MLP layer sizes must be positive, got %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in))
		w := make([][]float64, out)
		mw := make([][]float64, out)
		vw := make([][]float64, out)
		for o := range w {
			w[o] = make([]float64, in)
			mw[o] = make([]float64, in)
			vw[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = (rng.Float64()*2 - 1) * scale
			}
		}
		m.weights = append(m.weights, w)
		m.mW = append(m.mW, mw)
		m.vW = append(m.vW, vw)
		m.biases = append(m.biases, make([]float64, out))
		m.mB = append(m.mB, make([]float64, out))
		m.vB = append(m.vB, make([]float64, out))
	}
	return m, nil
}

// InputDim returns the expected feature dimension.
func (m *MLP) InputDim() int { return m.sizes[0] }

// scoreWidth and scoreLayers bound the networks Score runs on stack
// buffers; a wider or deeper network allocates its activations.
const (
	scoreWidth  = 64
	scoreLayers = 8
)

// Score runs a forward pass and returns the scalar output. For
// networks within scoreWidth and scoreLayers it allocates nothing: the
// layers ping-pong between two stack buffers.
func (m *MLP) Score(x []float64) float64 {
	if len(m.weights) > scoreLayers || slices.Max(m.sizes[1:]) > scoreWidth {
		acts := m.activations(x)
		m.forward(x, acts[1:])
		return acts[len(acts)-1][0]
	}
	var ping, pong [scoreWidth]float64
	var buf [scoreLayers][]float64
	for l := range m.weights {
		if l%2 == 0 {
			buf[l] = ping[:m.sizes[l+1]]
		} else {
			buf[l] = pong[:m.sizes[l+1]]
		}
	}
	acts := buf[:len(m.weights)]
	m.forward(x, acts)
	return acts[len(acts)-1][0]
}

// activations returns the activation list backward reads, input
// first: x, then a fresh buffer for every layer's output, which
// forward fills from acts[1:].
func (m *MLP) activations(x []float64) [][]float64 {
	acts := make([][]float64, len(m.weights)+1)
	acts[0] = x
	for l := range m.weights {
		acts[l+1] = make([]float64, m.sizes[l+1])
	}
	return acts
}

// forward runs the network on x, writing layer l's output into
// acts[l], which must have length sizes[l+1] and must not alias that
// layer's input.
func (m *MLP) forward(x []float64, acts [][]float64) {
	cur := x
	for l, w := range m.weights {
		dense(acts[l], cur, w, m.biases[l], l+1 < len(m.weights))
		cur = acts[l]
	}
}

// dense computes one fully-connected layer, out[o] = b[o] + Σ w[o][i]·in[i],
// clamped at zero when relu is set (the hidden layers). Each output is
// summed from its bias in input order; four outputs share one pass
// over in, so their independent sums overlap their add latencies.
func dense(out, in []float64, w [][]float64, b []float64, relu bool) {
	o := 0
	for ; o+4 <= len(out); o += 4 {
		r0, r1, r2, r3 := w[o][:len(in)], w[o+1][:len(in)], w[o+2][:len(in)], w[o+3][:len(in)]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, v := range in {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		s := b[o]
		row := w[o][:len(in)]
		for i, v := range in {
			s += row[i] * v
		}
		out[o] = s
	}
	if relu {
		for o, s := range out {
			if s < 0 {
				out[o] = 0
			}
		}
	}
}

// grads accumulates parameter gradients for a batch.
type grads struct {
	w [][][]float64
	b [][]float64
}

func (m *MLP) newGrads() *grads {
	g := &grads{}
	for l := range m.weights {
		w := make([][]float64, len(m.weights[l]))
		for o := range w {
			w[o] = make([]float64, len(m.weights[l][o]))
		}
		g.w = append(g.w, w)
		g.b = append(g.b, make([]float64, len(m.biases[l])))
	}
	return g
}

// zero resets every accumulator to +0 for the next list.
func (g *grads) zero() {
	for l := range g.w {
		for _, row := range g.w[l] {
			clear(row)
		}
		clear(g.b[l])
	}
}

// backward accumulates gradients for one example given dLoss/dScore.
// acts is the example's activation list (input first); delta holds one
// buffer per layer, delta[l] of length sizes[l+1], and delta[last]
// must already hold dScore. Every accumulator gets one add per example,
// and each propagated delta is summed from zero in output order, four
// inputs per pass over the layer's rows.
func (m *MLP) backward(acts, delta [][]float64, g *grads) {
	for l := len(m.weights) - 1; l >= 0; l-- {
		in, d := acts[l], delta[l]
		gw, gb := g.w[l], g.b[l]
		o := 0
		for ; o+4 <= len(d); o += 4 {
			r0, r1, r2, r3 := gw[o][:len(in)], gw[o+1][:len(in)], gw[o+2][:len(in)], gw[o+3][:len(in)]
			d0, d1, d2, d3 := d[o], d[o+1], d[o+2], d[o+3]
			gb[o] += d0
			gb[o+1] += d1
			gb[o+2] += d2
			gb[o+3] += d3
			for i, v := range in {
				r0[i] += d0 * v
				r1[i] += d1 * v
				r2[i] += d2 * v
				r3[i] += d3 * v
			}
		}
		for ; o < len(d); o++ {
			gb[o] += d[o]
			row := gw[o][:len(in)]
			for i, v := range in {
				row[i] += d[o] * v
			}
		}
		if l == 0 {
			break
		}
		w, prev := m.weights[l], delta[l-1]
		i := 0
		for ; i+4 <= len(prev); i += 4 {
			var s0, s1, s2, s3 float64
			for o, dv := range d {
				r := w[o][i : i+4]
				s0 += dv * r[0]
				s1 += dv * r[1]
				s2 += dv * r[2]
				s3 += dv * r[3]
			}
			prev[i], prev[i+1], prev[i+2], prev[i+3] = s0, s1, s2, s3
		}
		for ; i < len(prev); i++ {
			var s float64
			for o, dv := range d {
				s += dv * w[o][i]
			}
			prev[i] = s
		}
		for i, v := range in {
			if v <= 0 { // ReLU derivative of the hidden activation
				prev[i] = 0
			}
		}
	}
}

// adamApply performs one Adam update with the accumulated gradients.
func (m *MLP) adamApply(g *grads, lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	m.step++
	bc1 := 1 - math.Pow(beta1, float64(m.step))
	bc2 := 1 - math.Pow(beta2, float64(m.step))
	for l := range m.weights {
		for o := range m.weights[l] {
			for i := range m.weights[l][o] {
				grad := g.w[l][o][i]
				m.mW[l][o][i] = beta1*m.mW[l][o][i] + (1-beta1)*grad
				m.vW[l][o][i] = beta2*m.vW[l][o][i] + (1-beta2)*grad*grad
				m.weights[l][o][i] -= lr * (m.mW[l][o][i] / bc1) / (math.Sqrt(m.vW[l][o][i]/bc2) + eps)
			}
			grad := g.b[l][o]
			m.mB[l][o] = beta1*m.mB[l][o] + (1-beta1)*grad
			m.vB[l][o] = beta2*m.vB[l][o] + (1-beta2)*grad*grad
			m.biases[l][o] -= lr * (m.mB[l][o] / bc1) / (math.Sqrt(m.vB[l][o]/bc2) + eps)
		}
	}
}

// List is one listwise training group: the candidate feature vectors for
// a single NL query and their relevance labels (1 for the gold dialect,
// 0 otherwise; graded labels are allowed).
type List struct {
	Features [][]float64
	Labels   []float64
}

// TrainConfig controls listwise training.
type TrainConfig struct {
	Epochs int     // default 10
	LR     float64 // default 0.003
	Seed   int64
}

// TrainListwise fits the network with the ListNet objective: the
// cross-entropy between the softmax of the predicted scores and the
// normalized label distribution of each list. It returns the mean loss
// per epoch. Its buffers are sized once for the longest list and reused
// by every step, so the allocations of a call do not grow with the
// epochs or the lists.
func (m *MLP) TrainListwise(lists []List, cfg TrainConfig) []float64 {
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
	longest, labels := 0, 0
	for _, l := range lists {
		longest, labels = max(longest, len(l.Features)), max(labels, len(l.Labels))
	}
	b := m.newListBufs(longest, labels)
	losses := make([]float64, 0, cfg.Epochs)
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		var n int
		for _, li := range order {
			l := lists[li]
			if len(l.Features) == 0 {
				continue
			}
			loss := m.listStep(l, cfg.LR, b)
			sum += loss
			n++
		}
		if n > 0 {
			sum /= float64(n)
		}
		losses = append(losses, sum)
	}
	return losses
}

// listBufs is the working memory of one TrainListwise call: per list
// position an activation list over one shared block, the scores, the
// softmax and the targets, one delta buffer per layer and the
// gradient accumulators.
type listBufs struct {
	acts                 [][][]float64
	scores, pred, target []float64
	delta                [][]float64
	g                    *grads
}

// newListBufs sizes a listBufs for lists of up to n entries and
// labels.
func (m *MLP) newListBufs(n, labels int) *listBufs {
	width := 0 // the activations of one example, every layer's output
	for _, s := range m.sizes[1:] {
		width += s
	}
	layers := len(m.weights)
	block := make([]float64, n*width)
	heads := make([][]float64, n*(layers+1))
	b := &listBufs{
		acts:   make([][][]float64, n),
		scores: make([]float64, n),
		pred:   make([]float64, n),
		target: make([]float64, labels),
		delta:  make([][]float64, layers),
		g:      m.newGrads(),
	}
	for e := range b.acts {
		acts := heads[e*(layers+1) : (e+1)*(layers+1) : (e+1)*(layers+1)]
		for l := 1; l <= layers; l++ {
			acts[l], block = block[:m.sizes[l]:m.sizes[l]], block[m.sizes[l]:]
		}
		b.acts[e] = acts
	}
	for l := range b.delta {
		b.delta[l] = make([]float64, m.sizes[l+1])
	}
	return b
}

// listStep applies one ListNet update for a single list.
func (m *MLP) listStep(l List, lr float64, b *listBufs) float64 {
	n := len(l.Features)
	for i, x := range l.Features {
		acts := b.acts[i]
		acts[0] = x
		m.forward(x, acts[1:])
		b.scores[i] = acts[len(acts)-1][0]
	}
	pred := softmax(b.pred[:n], b.scores[:n])
	target := normalizeLabels(b.target[:len(l.Labels)], l.Labels)

	// Loss = -sum target_i * log(pred_i); dLoss/dscore_i = pred_i - target_i.
	var loss float64
	for i := range pred {
		if target[i] > 0 {
			loss -= target[i] * math.Log(pred[i]+1e-12)
		}
	}
	b.g.zero()
	out := b.delta[len(b.delta)-1]
	for i := range pred {
		out[0] = pred[i] - target[i]
		m.backward(b.acts[i], b.delta, b.g)
	}
	m.adamApply(b.g, lr)
	return loss
}

// softmax writes the softmax of scores into out and returns it.
func softmax(out, scores []float64) []float64 {
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for i, s := range scores {
		out[i] = math.Exp(s - maxS)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// normalizeLabels writes labels as a probability distribution into out
// and returns it; an all-zero list becomes uniform.
func normalizeLabels(out, labels []float64) []float64 {
	var sum float64
	for _, l := range labels {
		if l > 0 {
			sum += l
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(labels))
		}
		return out
	}
	for i, l := range labels {
		out[i] = 0
		if l > 0 {
			out[i] = l / sum
		}
	}
	return out
}

// mlpState is the serialized form of MLP, including the optimizer state
// so training can resume after a load.
type mlpState struct {
	Sizes   []int
	Weights [][][]float64
	Biases  [][]float64
	MW, VW  [][][]float64
	MB, VB  [][]float64
	Step    int
}

// GobEncode implements gob.GobEncoder.
func (m *MLP) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(mlpState{
		Sizes: m.sizes, Weights: m.weights, Biases: m.biases,
		MW: m.mW, VW: m.vW, MB: m.mB, VB: m.vB, Step: m.step,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *MLP) GobDecode(data []byte) error {
	var st mlpState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	m.sizes, m.weights, m.biases = st.Sizes, st.Weights, st.Biases
	m.mW, m.vW, m.mB, m.vB, m.step = st.MW, st.VW, st.MB, st.VB, st.Step
	return nil
}
