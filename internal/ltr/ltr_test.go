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

// TestBuildListsShape checks the lists of a pipeline without and with
// per-candidate costs and embeddings: every list names entries of the
// one pool table BuildLists built, its IDs index the pool, a gold that
// retrieval missed is appended as its pool id with label 1, and the
// lists carry the pipeline's own Costs and DialVecs, not copies. The
// second run pairs each question with the next example's gold, so
// retrieval's top 1 misses golds.
func TestBuildListsShape(t *testing.T) {
	pipe, examples := trainedPipeline(t, true)
	pi := ltr.NewPoolIndex(pipe.Pool)
	for _, k := range []int{3, 1} {
		if k == 1 {
			shifted := make([]ltr.Example, len(examples))
			for i, ex := range examples {
				shifted[i] = ltr.Example{NL: ex.NL, Gold: examples[(i+1)%len(examples)].Gold}
			}
			examples = shifted
			pipe.Costs = make([]float64, len(pipe.Pool))
			pipe.DialVecs = make([]vector.Vec, len(pipe.Pool))
			for i, c := range pipe.Pool {
				pipe.Costs[i] = float64(i)
				pipe.DialVecs[i] = pipe.Encoder.Encode(c.Dialect)
			}
		}
		lists := pipe.BuildLists(examples, k)
		if len(lists) != len(examples) {
			t.Fatalf("lists = %d, want %d", len(lists), len(examples))
		}
		if pipe.Table == nil || pipe.Table.Len() != len(pipe.Pool) {
			t.Fatal("BuildLists did not build the pool's table")
		}
		appended := 0
		for i, l := range lists {
			if l.Table != pipe.Table {
				t.Fatalf("list for %q names entries of another table", l.NL)
			}
			if len(l.IDs) != len(l.Labels) {
				t.Fatal("list shape mismatch")
			}
			hits := pipe.Retrieve(l.NL, k)
			gold := pi.Find(examples[i].Gold)
			for j, id := range l.IDs {
				if id < 0 || id >= len(pipe.Pool) {
					t.Fatalf("list for %q entry %d: id %d outside the pool", l.NL, j, id)
				}
				if j < len(hits) && hits[j].ID != id {
					t.Fatalf("list for %q entry %d: id %d, retrieval's %d", l.NL, j, id, hits[j].ID)
				}
				want := 0.0
				if id == gold {
					want = 1
				}
				if l.Labels[j] != want {
					t.Fatalf("list for %q entry %d (candidate %d): label %v, want %v", l.NL, j, id, l.Labels[j], want)
				}
			}
			switch len(l.IDs) {
			case len(hits):
			case len(hits) + 1: // the appended gold
				if l.IDs[len(hits)] != gold || l.Labels[len(hits)] != 1 {
					t.Fatalf("list for %q appended candidate %d, label %v; want gold %d, label 1", l.NL, l.IDs[len(hits)], l.Labels[len(hits)], gold)
				}
				appended++
			default:
				t.Fatalf("list for %q has %d entries for %d hits", l.NL, len(l.IDs), len(hits))
			}
			if pipe.Costs == nil {
				if l.Costs != nil || l.DialVecs != nil {
					t.Fatalf("list for %q carries costs or embeddings the pipeline does not hold", l.NL)
				}
				continue
			}
			if len(l.Costs) != len(pipe.Costs) || &l.Costs[0] != &pipe.Costs[0] ||
				len(l.DialVecs) != len(pipe.DialVecs) || &l.DialVecs[0] != &pipe.DialVecs[0] {
				t.Fatalf("list for %q does not carry the pipeline's own costs and embeddings", l.NL)
			}
		}
		if k == 1 && appended == 0 {
			t.Fatal("no list appended its gold at k=1")
		}
	}
}

func TestRankWithoutReranker(t *testing.T) {
	pipe, examples := trainedPipeline(t, true)
	hits, err := pipe.RetrieveContext(context.Background(), examples[3].NL, pipe.K)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := pipe.RerankVecContext(context.Background(), examples[3].NL, nil, hits)
	if err != nil {
		t.Fatal(err)
	}
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
// live re-ranker over the pool's table: ranked output must be a
// permutation of the retrieved hits in descending score order, the
// precomputed-embedding and precomputed-cost paths must be
// bit-identical to the plain path, the cost vector must actually reach
// the model (perturbing it moves a score), and the pool's table must
// rank exactly as a table over the hits alone.
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
	pipe.Table = ltr.PoolTable(pipe.Pool)

	nl := examples[3].NL
	hits := pipe.Retrieve(nl, 3)

	plain, err := pipe.RerankVecContext(context.Background(), nl, nil, hits)
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

	// The pool's table ranks exactly as a table over the hits' dialects
	// alone, with their embeddings and costs gathered per hit.
	dialects := make([]string, len(hits))
	dialVecs := make([]vector.Vec, len(hits))
	costs := make([]float64, len(hits))
	for i, h := range hits {
		dialects[i], dialVecs[i], costs[i] = pipe.Pool[h.ID].Dialect, pipe.DialVecs[h.ID], pipe.Costs[h.ID]
	}
	order, scores, err := m.RankScoresPrepContext(context.Background(), x.PrepareVec(nl, qvec), dialects, dialVecs, costs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range order {
		if costly[i].ID != hits[idx].ID || costly[i].Score != scores[idx] {
			t.Fatalf("pool table diverged at %d from a table over the hits: %+v vs candidate %d score %v", i, costly[i], hits[idx].ID, scores[idx])
		}
	}
}

// TestRerankWithoutTable: a pipeline that re-ranks must hold its
// pool's feature table; without one the second stage is an error, not
// a panic, while the retrieval-only ablation needs none.
func TestRerankWithoutTable(t *testing.T) {
	pipe, examples := trainedPipeline(t, false)
	x := &rerank.Extractor{IDF: text.NewIDF(nil), Encoder: pipe.Encoder}
	m, err := rerank.New(x, 9)
	if err != nil {
		t.Fatal(err)
	}
	pipe.Reranker = m
	hits := pipe.Retrieve(examples[0].NL, 3)
	if out, err := pipe.RerankVecContext(context.Background(), examples[0].NL, nil, hits); err == nil {
		t.Fatalf("re-ranking without a table returned %d candidates and no error", len(out))
	}
	pipe.SkipRerank = true
	if out, err := pipe.RerankVecContext(context.Background(), examples[0].NL, nil, hits); err != nil || len(out) != len(hits) {
		t.Fatalf("retrieval-only ranking: %d candidates, %v", len(out), err)
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
