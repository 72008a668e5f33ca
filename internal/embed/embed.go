// Package embed implements the first-stage retrieval model of GAR
// (§III-C1). The paper fine-tunes a Siamese MPNet sentence encoder; this
// package substitutes a pure-Go Siamese text encoder: hashed word and
// character-trigram embeddings, IDF-weighted mean pooling, L2
// normalization, trained with a margin-based triplet objective — the
// same training signal (anchor NL query, positive gold dialect, sampled
// negative dialect) and the same inference path (encode both sides,
// rank by cosine similarity).
package embed

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/text"
	"repro/internal/vector"
)

// Config controls encoder shape and training.
type Config struct {
	// Dim is the embedding dimension. Default 64.
	Dim int
	// Buckets is the hashed vocabulary size (words and character
	// trigrams share the table). Default 8192.
	Buckets int
	// CharWeight is the pooling weight of character-trigram embeddings
	// relative to word embeddings. Default 0.3.
	CharWeight float32
	// Margin of the triplet loss. Default 0.2.
	Margin float32
	// Seed for initialization and negative sampling.
	Seed int64
}

func (c *Config) fill() {
	if c.Dim <= 0 {
		c.Dim = 64
	}
	if c.Buckets <= 0 {
		c.Buckets = 8192
	}
	if c.CharWeight == 0 {
		c.CharWeight = 0.3
	}
	if c.Margin == 0 {
		c.Margin = 0.2
	}
}

// Encoder is the trainable Siamese text encoder.
type Encoder struct {
	cfg Config
	emb []vector.Vec // bucket → embedding row, all rows in one backing array
	idf *text.IDF
	rng *rand.Rand
}

// NewEncoder builds an encoder with small random embeddings.
func NewEncoder(cfg Config) *Encoder {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	e := &Encoder{cfg: cfg, rng: rng}
	e.emb = vector.Rows(cfg.Buckets, cfg.Dim)
	scale := float32(1 / math.Sqrt(float64(cfg.Dim)))
	for _, row := range e.emb {
		for d := range row {
			row[d] = (rng.Float32()*2 - 1) * scale
		}
	}
	return e
}

// Dim returns the embedding dimension.
func (e *Encoder) Dim() int { return e.cfg.Dim }

// FitIDF fits the IDF pooling weights over a corpus (typically the
// dialect expressions plus the training NL queries).
func (e *Encoder) FitIDF(corpus []string) { e.idf = text.NewIDF(corpus) }

//garlint:allow errlost -- hash.Hash.Write never returns an error by its documented contract
func (e *Encoder) bucket(s string) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() % uint32(e.cfg.Buckets))
}

// feature is one pooled embedding row with its pooling weight.
type feature struct {
	bucket int
	weight float32
}

func (e *Encoder) features(s string) []feature {
	toks := text.Tokenize(s)
	var out []feature
	for _, t := range toks {
		if text.IsStopword(t) {
			continue
		}
		w := float32(1)
		if e.idf != nil {
			w = float32(e.idf.Weight(t))
		}
		// The word embedding row is shared across a synonym group,
		// standing in for pre-trained lexical knowledge; character
		// n-grams keep the surface form.
		out = append(out, feature{bucket: e.bucket(text.Canon(t)), weight: w})
		for _, g := range text.CharNGrams(t, 3) {
			out = append(out, feature{bucket: e.bucket("#" + g), weight: e.cfg.CharWeight})
		}
	}
	return out
}

// Encode maps a text to its unit-norm embedding.
func (e *Encoder) Encode(s string) vector.Vec {
	fs := e.features(s)
	v := vector.New(e.cfg.Dim)
	if len(fs) == 0 {
		return v
	}
	var total float32
	for _, f := range fs {
		vector.Axpy(v, f.weight, e.emb[f.bucket])
		total += f.weight
	}
	if total > 0 {
		vector.Scale(v, 1/total)
	}
	return vector.Normalize(v)
}

// Similarity returns the cosine similarity of two texts under the
// current encoder parameters.
func (e *Encoder) Similarity(a, b string) float32 {
	return vector.Dot(e.Encode(a), e.Encode(b))
}

// Triplet is one training example: an anchor NL query, the dialect of
// its gold SQL, and a non-gold dialect.
type Triplet struct {
	Anchor, Positive, Negative string
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs int     // default 5
	LR     float32 // default 0.05
}

// Train fits the encoder on the triplets with SGD over the margin
// triplet loss max(0, margin - cos(a,p) + cos(a,n)). Gradients are
// propagated to the pooled embedding rows with the norm treated as a
// constant (stop-gradient through normalization), the standard cheap
// approximation for shallow Siamese encoders. It returns the mean loss
// per epoch.
func (e *Encoder) Train(triplets []Triplet, cfg TrainConfig) []float64 {
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
	for ep := 0; ep < cfg.Epochs; ep++ {
		e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := cfg.LR / float32(1+ep)
		var sum float64
		for _, idx := range order {
			sum += float64(e.step(triplets[idx], lr))
		}
		if len(triplets) > 0 {
			sum /= float64(len(triplets))
		}
		losses = append(losses, sum)
	}
	return losses
}

// step applies one SGD update and returns the triplet loss.
func (e *Encoder) step(t Triplet, lr float32) float32 {
	fa, fp, fn := e.features(t.Anchor), e.features(t.Positive), e.features(t.Negative)
	va, wa := e.pool(fa)
	vp, wp := e.pool(fp)
	vn, wn := e.pool(fn)
	na, np, nn := vector.Norm(va), vector.Norm(vp), vector.Norm(vn)
	if na == 0 || np == 0 || nn == 0 {
		return 0
	}
	ua, up, un := unit(va, na), unit(vp, np), unit(vn, nn)
	sp := vector.Dot(ua, up)
	sn := vector.Dot(ua, un)
	loss := e.cfg.Margin - sp + sn
	if loss <= 0 {
		return 0
	}
	// dL/dua = -up + un ; dL/dup = -ua ; dL/dun = +ua.
	ga := vector.Clone(un)
	vector.Axpy(ga, -1, up)
	e.backprop(fa, ga, wa*na, lr)
	gp := vector.Clone(ua)
	vector.Scale(gp, -1)
	e.backprop(fp, gp, wp*np, lr)
	e.backprop(fn, vector.Clone(ua), wn*nn, lr)
	return loss
}

// pool returns the weighted sum embedding and the total pooling weight.
func (e *Encoder) pool(fs []feature) (vector.Vec, float32) {
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

func unit(v vector.Vec, n float32) vector.Vec {
	out := vector.Clone(v)
	vector.Scale(out, 1/n)
	return out
}

// backprop distributes the upstream gradient to the embedding rows of
// the features; scale folds the pooling weight sum and the norm.
func (e *Encoder) backprop(fs []feature, grad vector.Vec, scale float32, lr float32) {
	if scale == 0 {
		return
	}
	for _, f := range fs {
		vector.Axpy(e.emb[f.bucket], -lr*f.weight/scale, grad)
	}
}

// encoderState is the serialized form of Encoder. Table is the
// embedding table as one vector flat block. Emb is the row-by-row form
// of version-1 model files: read so they still load, never written.
type encoderState struct {
	Cfg   Config
	Table []byte
	Emb   []vector.Vec
	IDF   *text.IDF
}

// GobEncode implements gob.GobEncoder: the configuration, embedding
// table and IDF statistics are persisted; the RNG restarts from the
// seed on load.
func (e *Encoder) GobEncode() ([]byte, error) {
	table, err := vector.EncodeRows(e.emb)
	if err != nil {
		return nil, fmt.Errorf("embed: encoding the embedding table: %w", err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(encoderState{Cfg: e.cfg, Table: table, IDF: e.idf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. The table must match the
// configuration's bucket count and dimension; a mismatch is an error,
// so a decoded encoder never indexes outside its table.
func (e *Encoder) GobDecode(data []byte) error {
	var st encoderState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if st.Cfg.Buckets <= 0 || st.Cfg.Dim <= 0 {
		return fmt.Errorf("embed: encoder of %d buckets × %d dimensions", st.Cfg.Buckets, st.Cfg.Dim)
	}
	var emb []vector.Vec
	switch {
	case st.Table != nil:
		rows, err := vector.DecodeRows(st.Table)
		if err != nil {
			return fmt.Errorf("embed: embedding table: %w", err)
		}
		emb = rows
	case st.Emb != nil:
		emb = vector.Rows(len(st.Emb), st.Cfg.Dim)
		for i, row := range st.Emb {
			if len(row) != st.Cfg.Dim {
				return fmt.Errorf("embed: embedding row %d has dimension %d, want %d", i, len(row), st.Cfg.Dim)
			}
			copy(emb[i], row)
		}
	default:
		return errors.New("embed: encoder state has no embedding table")
	}
	if len(emb) != st.Cfg.Buckets {
		return fmt.Errorf("embed: embedding table of %d rows, want %d buckets", len(emb), st.Cfg.Buckets)
	}
	if len(emb[0]) != st.Cfg.Dim {
		return fmt.Errorf("embed: embedding rows of dimension %d, want %d", len(emb[0]), st.Cfg.Dim)
	}
	e.cfg = st.Cfg
	e.emb = emb
	e.idf = st.IDF
	e.rng = rand.New(rand.NewSource(st.Cfg.Seed))
	return nil
}
