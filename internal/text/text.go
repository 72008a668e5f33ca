// Package text provides the lexical utilities shared by the retrieval
// encoder and the re-ranking feature extractor: tokenization, stopword
// filtering, n-grams, edit distance and corpus IDF statistics.
package text

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases s and splits it into word and number tokens.
// Punctuation separates tokens and is dropped.
func Tokenize(s string) []string {
	var out []string
	EachToken(s, nil, func(tok []byte, _ int) {
		out = append(out, string(tok))
	})
	return out
}

// EachToken is the tokenizer behind Tokenize: it calls fn with every
// token of s in order, as lower-cased bytes in a buffer reused across
// calls (fn must copy what it keeps), together with the byte offset in
// s of the separator that ended the token (len(s) for the last one).
// buf is the buffer to reuse; the grown buffer is returned.
func EachToken(s string, buf []byte, fn func(tok []byte, end int)) []byte {
	cur := buf[:0]
	for i, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur = utf8.AppendRune(cur, unicode.ToLower(r))
		case r == '\'':
			// keep contractions attached: don't → dont
		default:
			if len(cur) > 0 {
				fn(cur, i)
				cur = cur[:0]
			}
		}
	}
	if len(cur) > 0 {
		fn(cur, len(s))
	}
	return cur
}

// stopwords is a small English stopword list tuned for dialect
// expressions: articles, auxiliaries and the glue words of the dialect
// templates that carry no content.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "for": true,
	"to": true, "in": true, "on": true, "is": true, "are": true,
	"was": true, "were": true, "be": true, "and": true, "or": true,
	"that": true, "this": true, "those": true, "these": true,
	"with": true, "by": true, "as": true, "at": true, "it": true,
	"its": true, "do": true, "does": true, "did": true, "what": true,
	"which": true, "who": true, "whose": true, "how": true, "me": true,
	"give": true, "show": true, "list": true, "find": true,
	"return": true, "tell": true, "please": true, "all": true,
	"regarding": true, "results": true, "result": true, "only": true,
}

// IsStopword reports whether the lower-case token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentTokens tokenizes s, removes stopwords and stems plurals, so
// "employees" and "employee" compare equal in overlap features.
func ContentTokens(s string) []string {
	toks := Tokenize(s)
	out := toks[:0:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, Stem(t))
		}
	}
	return out
}

// Stem strips simple English plural suffixes: "cities" → "city",
// "flights" → "flight". Short tokens and "ss" endings are untouched.
func Stem(t string) string {
	if len(t) > 4 && strings.HasSuffix(t, "ies") {
		return t[:len(t)-3] + "y"
	}
	if len(t) > 3 && strings.HasSuffix(t, "s") && !strings.HasSuffix(t, "ss") {
		return t[:len(t)-1]
	}
	return t
}

// NGrams returns the n-grams of the token slice as joined strings.
func NGrams(tokens []string, n int) []string {
	if n <= 0 || len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+n], " "))
	}
	return out
}

// CharNGrams returns the character n-grams of a single token, padded
// with '#' boundaries so short tokens still produce grams.
func CharNGrams(token string, n int) []string {
	padded := "#" + token + "#"
	if n <= 0 || len(padded) < n {
		return []string{padded}
	}
	out := make([]string, 0, len(padded)-n+1)
	for i := 0; i+n <= len(padded); i++ {
		out = append(out, padded[i:i+n])
	}
	return out
}

// Jaccard computes the Jaccard similarity of two string multisets
// (treated as sets).
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := make(map[string]bool, len(a))
	for _, t := range a {
		sa[t] = true
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// OverlapRatio returns |a∩b| / |a| over the token sets; it measures how
// much of a is covered by b.
func OverlapRatio(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	seen := map[string]bool{}
	hit, total := 0, 0
	for _, t := range a {
		if seen[t] {
			continue
		}
		seen[t] = true
		total++
		if sb[t] {
			hit++
		}
	}
	return float64(hit) / float64(total)
}

// EditDistance computes the Levenshtein distance between two token
// slices.
func EditDistance(a, b []string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// IDF holds inverse-document-frequency statistics over a corpus.
type IDF struct {
	docs   int
	counts map[string]int
}

// NewIDF fits IDF statistics over the corpus (one string per document).
func NewIDF(corpus []string) *IDF {
	idf := &IDF{docs: len(corpus), counts: map[string]int{}}
	for _, doc := range corpus {
		seen := map[string]bool{}
		for _, t := range Tokenize(doc) {
			if !seen[t] {
				seen[t] = true
				idf.counts[t]++
			}
		}
	}
	return idf
}

// Weight returns the smoothed IDF weight of a token. Unseen tokens get
// the maximum weight.
func (i *IDF) Weight(token string) float64 {
	if i == nil || i.docs == 0 {
		return 1
	}
	df := i.counts[token]
	return math.Log(float64(i.docs+1)/float64(df+1)) + 1
}

// WeightedOverlap computes the IDF-weighted coverage of a's tokens by
// b's tokens: sum of weights of shared tokens divided by total weight
// of a's tokens.
func (i *IDF) WeightedOverlap(a, b []string) float64 {
	if len(a) == 0 {
		return 0
	}
	sb := make(map[string]bool, len(b))
	for _, t := range b {
		sb[t] = true
	}
	var hit, total float64
	seen := map[string]bool{}
	for _, t := range a {
		if seen[t] {
			continue
		}
		seen[t] = true
		w := i.Weight(t)
		total += w
		if sb[t] {
			hit += w
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// idfState is the serialized form of IDF.
type idfState struct {
	Docs   int
	Counts map[string]int
}

// GobEncode implements gob.GobEncoder so trained models embedding IDF
// statistics can be persisted.
func (i *IDF) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(idfState{Docs: i.docs, Counts: i.counts}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (i *IDF) GobDecode(data []byte) error {
	var st idfState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	i.docs = st.Docs
	i.counts = st.Counts
	return nil
}
