package ltr_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/ltr"
	"repro/internal/rerank"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/text"
	"repro/internal/vector"
	"repro/internal/vindex"
)

func TestSimilarityScore(t *testing.T) {
	gold := sqlparse.MustParse("SELECT name FROM employee WHERE age > 30 ORDER BY age DESC LIMIT 1")
	if s := ltr.SimilarityScore(gold, gold); s != 1 {
		t.Errorf("identical queries: s = %v, want 1", s)
	}
	oneOff := sqlparse.MustParse("SELECT name FROM employee WHERE age > 30 ORDER BY age LIMIT 1")
	s1 := ltr.SimilarityScore(oneOff, gold)
	if s1 >= 1 || s1 <= 0 {
		t.Errorf("one differing clause: s = %v, want in (0,1)", s1)
	}
	twoOff := sqlparse.MustParse("SELECT age FROM employee WHERE age > 30 ORDER BY age LIMIT 1")
	s2 := ltr.SimilarityScore(twoOff, gold)
	if s2 >= s1 {
		t.Errorf("more differences should score lower: %v vs %v", s2, s1)
	}
	allOff := sqlparse.MustParse("SELECT city, COUNT(*) FROM shop GROUP BY city")
	if s := ltr.SimilarityScore(allOff, gold); s != 0 {
		t.Errorf("disjoint queries: s = %v, want 0", s)
	}
	if ltr.SimilarityScore(nil, gold) != 0 || ltr.SimilarityScore(gold, nil) != 0 {
		t.Error("nil queries must score 0")
	}
	// Value-masking invariance: literal values must not affect s.
	a := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'Austin'")
	b := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'Madrid'")
	if ltr.SimilarityScore(a, b) != 1 {
		t.Error("values should be masked in similarity")
	}
}

func pool() []ltr.Candidate {
	mk := func(src, d string) ltr.Candidate {
		return ltr.Candidate{SQL: sqlparse.MustParse(src), Dialect: d}
	}
	return []ltr.Candidate{
		mk("SELECT name FROM employee", "Find the name of employee."),
		mk("SELECT age FROM employee", "Find the age of employee."),
		mk("SELECT COUNT(*) FROM employee", "Find the number of employees."),
		mk("SELECT name FROM employee ORDER BY age DESC LIMIT 1", "Find the name of employee. Return the top one result in descending order of the age of employee."),
		mk("SELECT city FROM employee", "Find the city of employee."),
	}
}

func TestPoolIndex(t *testing.T) {
	p := pool()
	pi := ltr.NewPoolIndex(p)
	if got := pi.Find(sqlparse.MustParse("SELECT name FROM employee")); got != 0 {
		t.Errorf("Find = %d, want 0", got)
	}
	// Alias and value invariance (callers must bind queries consistently
	// against the schema; here both sides are unqualified).
	if got := pi.Find(sqlparse.MustParse("SELECT name FROM employee AS T1")); got != 0 {
		t.Errorf("aliased Find = %d, want 0", got)
	}
	if got := pi.Find(sqlparse.MustParse("SELECT salary FROM employee")); got != -1 {
		t.Errorf("missing query Find = %d, want -1", got)
	}
	if pi.Find(nil) != -1 {
		t.Error("nil Find should be -1")
	}
}

func trainedPipeline(t *testing.T, skipRerank bool) (*ltr.Pipeline, []ltr.Example) {
	t.Helper()
	p := pool()
	examples := []ltr.Example{
		{NL: "what are the names of all employees", Gold: sqlparse.MustParse("SELECT name FROM employee")},
		{NL: "how old is each employee", Gold: sqlparse.MustParse("SELECT age FROM employee")},
		{NL: "how many employees are there", Gold: sqlparse.MustParse("SELECT COUNT(*) FROM employee")},
		{NL: "who is the oldest employee", Gold: sqlparse.MustParse("SELECT name FROM employee ORDER BY age DESC LIMIT 1")},
		{NL: "which cities do employees live in", Gold: sqlparse.MustParse("SELECT city FROM employee")},
	}
	enc := embed.NewEncoder(embed.Config{Seed: 1})
	var corpus []string
	for _, c := range p {
		corpus = append(corpus, c.Dialect)
	}
	for _, ex := range examples {
		corpus = append(corpus, ex.NL)
	}
	enc.FitIDF(corpus)
	trips := ltr.BuildTriplets(examples, p, nil, 4, 2)
	if len(trips) == 0 {
		t.Fatal("no triplets built")
	}
	enc.Train(trips, embed.TrainConfig{Epochs: 6})
	idx := vindex.NewFlat()
	for i, c := range p {
		idx.Add(i, enc.Encode(c.Dialect))
	}
	return &ltr.Pipeline{Encoder: enc, Index: idx, Pool: p, K: 3, SkipRerank: skipRerank}, examples
}

func TestPipelineRetrieve(t *testing.T) {
	pipe, examples := trainedPipeline(t, true)
	hits := pipe.Retrieve(examples[0].NL, 3)
	if len(hits) != 3 {
		t.Fatalf("Retrieve returned %d hits", len(hits))
	}
	// Retrieval-only ranking must still usually find the gold in top-3.
	found := 0
	pi := ltr.NewPoolIndex(pipe.Pool)
	for _, ex := range examples {
		goldIdx := pi.Find(ex.Gold)
		for _, h := range pipe.Retrieve(ex.NL, 3) {
			if h.ID == goldIdx {
				found++
				break
			}
		}
	}
	if found < 4 {
		t.Errorf("gold in top-3 for only %d/5 examples", found)
	}
}

func TestBuildListsShape(t *testing.T) {
	pipe, examples := trainedPipeline(t, true)
	lists := pipe.BuildLists(examples, 3)
	if len(lists) != len(examples) {
		t.Fatalf("lists = %d, want %d", len(lists), len(examples))
	}
	for _, l := range lists {
		if len(l.Dialects) != len(l.Labels) {
			t.Fatal("list shape mismatch")
		}
		pos := 0
		for _, lab := range l.Labels {
			if lab == 1 {
				pos++
			}
		}
		if pos != 1 {
			t.Errorf("list for %q has %d positives, want 1", l.NL, pos)
		}
		if len(l.Dialects) > 4 { // k=3 plus possibly the appended gold
			t.Errorf("list too long: %d", len(l.Dialects))
		}
	}
}

func TestRankWithoutReranker(t *testing.T) {
	pipe, examples := trainedPipeline(t, true)
	ranked := pipe.Rank(examples[3].NL)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Error("retrieval-only ranking not sorted by score")
		}
	}
	// The SQL of each ranked entry must match its pool entry.
	for _, r := range ranked {
		if !sqlast.Equal(r.SQL, pipe.Pool[r.ID].SQL) {
			t.Error("ranked entry SQL mismatch")
		}
	}
}

func TestBuildTripletsSkipsMissingGold(t *testing.T) {
	p := pool()
	examples := []ltr.Example{
		{NL: "something unanswerable", Gold: sqlparse.MustParse("SELECT salary FROM payroll")},
	}
	trips := ltr.BuildTriplets(examples, p, nil, 4, 1)
	if len(trips) != 0 {
		t.Errorf("triplets built for a data-preparation miss: %d", len(trips))
	}
}

// TestRerankVecContextCostAware drives the full second stage with a
// live re-ranker: ranked output must be a permutation of the retrieved
// hits in descending score order, the precomputed-embedding and
// precomputed-cost paths must be bit-identical to the plain path, and
// the cost vector must actually reach the model (perturbing it moves a
// score).
func TestRerankVecContextCostAware(t *testing.T) {
	pipe, examples := trainedPipeline(t, false)
	var corpus []string
	for _, c := range pipe.Pool {
		corpus = append(corpus, c.Dialect)
	}
	x := &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: pipe.Encoder}
	m, err := rerank.New(x, 9)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Reranker = m

	nl := examples[3].NL
	hits := pipe.Retrieve(nl, 3)

	plain, err := pipe.RerankContext(context.Background(), nl, hits)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(hits) {
		t.Fatalf("reranked %d of %d hits", len(plain), len(hits))
	}
	for i := 1; i < len(plain); i++ {
		if plain[i].Score > plain[i-1].Score {
			t.Fatal("reranked output not in descending score order")
		}
	}

	// Precomputed dialect embeddings and a cached query vector must not
	// change a single bit.
	pipe.DialVecs = make([]vector.Vec, len(pipe.Pool))
	for i, c := range pipe.Pool {
		pipe.DialVecs[i] = pipe.Encoder.Encode(c.Dialect)
	}
	qvec := pipe.Encoder.Encode(nl)
	cached, err := pipe.RerankVecContext(context.Background(), nl, qvec, hits)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(plain) {
		t.Fatal("cached path changed the candidate count")
	}
	for i := range plain {
		if cached[i].ID != plain[i].ID || cached[i].Score != plain[i].Score {
			t.Fatalf("cached path diverged at %d: %+v vs %+v", i, cached[i], plain[i])
		}
	}

	// A zero cost vector is the same as no cost vector; a perturbed one
	// must move at least the perturbed candidate's score.
	pipe.Costs = make([]float64, len(pipe.Pool))
	zeroCost, err := pipe.RerankVecContext(context.Background(), nl, qvec, hits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if zeroCost[i].Score != plain[i].Score {
			t.Fatalf("zero cost vector changed score %d", i)
		}
	}
	for i := range pipe.Costs {
		pipe.Costs[i] = 0.9
	}
	costly, err := pipe.RerankVecContext(context.Background(), nl, qvec, hits)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range costly {
		if costly[i].Score != zeroCost[i].Score {
			moved = true
		}
	}
	if !moved {
		t.Fatal("cost vector did not reach the scoring path")
	}

	// A per-snapshot feature table ranks exactly as the per-request
	// one over the hits.
	dialects := make([]string, len(pipe.Pool))
	for i, c := range pipe.Pool {
		dialects[i] = c.Dialect
	}
	pipe.Table = rerank.NewTable(dialects)
	tabled, err := pipe.RerankVecContext(context.Background(), nl, qvec, hits)
	if err != nil {
		t.Fatal(err)
	}
	for i := range costly {
		if tabled[i].ID != costly[i].ID || tabled[i].Score != costly[i].Score {
			t.Fatalf("table path diverged at %d: %+v vs %+v", i, tabled[i], costly[i])
		}
	}
}

// TestPoolIndexConcurrentFirstFind: the canonical-form map is built by
// the first Find; lookups racing to be first all see it complete.
func TestPoolIndexConcurrentFirstFind(t *testing.T) {
	p := pool()
	pi := ltr.NewPoolIndex(p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range p {
				if got := pi.Find(c.SQL); got != i {
					t.Errorf("Find(%s) = %d, want %d", c.SQL, got, i)
				}
			}
		}()
	}
	wg.Wait()
}
