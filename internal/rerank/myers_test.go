package rerank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/text"
)

func randomTokens(rng *rand.Rand, n, alphabet int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Intn(alphabet))
	}
	return out
}

// TestEditDistanceMyersMatchesDP checks the bit-parallel edit distance
// against the DP on random token sequences up to maxMyers question
// tokens, including question ids past the vocabulary (tokens no entry
// can contain), and that a longer question takes the DP.
func TestEditDistanceMyersMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc scratch
	for trial := 0; trial < 20000; trial++ {
		vocab := 1 + rng.Intn(12)
		a := randomTokens(rng, rng.Intn(maxMyers+1), vocab+3)
		b := randomTokens(rng, rng.Intn(90), vocab)
		m := &Match{toks: a, peq: matchMasks(a, vocab)}
		if got, want := m.editDistance(b, &sc), sc.editDistance(a, b); got != want {
			t.Fatalf("trial %d: bit-parallel %d, DP %d for %v vs %v", trial, got, want, a, b)
		}
	}
	for _, n := range []int{maxMyers, maxMyers + 1, 100} {
		a := randomTokens(rng, n, 5)
		b := randomTokens(rng, 70, 5)
		m := &Match{toks: a, peq: matchMasks(a, 5)}
		if (m.peq == nil) != (n > maxMyers) {
			t.Fatalf("%d question tokens: masks %v, want bit-parallel only up to %d", n, m.peq != nil, maxMyers)
		}
		words := func(ids []uint32) []string {
			out := make([]string, len(ids))
			for i, id := range ids {
				out[i] = fmt.Sprint(id)
			}
			return out
		}
		if got, want := m.editDistance(b, &sc), text.EditDistance(words(a), words(b)); got != want {
			t.Fatalf("%d question tokens: %d, want %d", n, got, want)
		}
	}
}
