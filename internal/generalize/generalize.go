// Package generalize implements the compositional SQL generalizer of the
// GAR paper (§III-A, Algorithm 1). Starting from a set of sample queries
// on one database, it synthesizes component-similar queries by
// recomposing the samples' components, pruned by the paper's four
// recomposition rules:
//
//	Rule 1 (Join Rule): generalized queries may only use join paths that
//	appear in the sample set.
//	Rule 2 (Syntactic Restriction): per-clause complexity (number of
//	predicates, select items, joins, ...) is capped by the maxima
//	observed in the samples.
//	Rule 3 (Frequency Preservation): components that occur more often in
//	the samples are installed proportionally more often.
//	Rule 4 (Sub-query Preservation): subqueries are never decomposed;
//	they move as part of their enclosing component.
//
// A closure property makes a component pool equivalent to the paper's
// pairwise tree shuffle: every component of every generalized tree is a
// component of some sample, so recomposing a tree with a pool component
// reaches exactly the set of component-similar queries that repeated
// pairwise shuffles reach, while converging faster.
package generalize

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/component"
	"repro/internal/memgov"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlcheck"
)

// RuleSet toggles the four recomposition rules; all enabled by default.
// Disabling rules is used by the ablation benchmarks.
type RuleSet struct {
	Join      bool
	Syntactic bool
	Frequency bool
	Subquery  bool // kept for completeness; extraction is always atomic
}

// AllRules enables every recomposition rule.
func AllRules() RuleSet { return RuleSet{Join: true, Syntactic: true, Frequency: true, Subquery: true} }

// Config controls a generalization run.
type Config struct {
	// TargetSize stops the run once this many distinct queries exist
	// (samples included). Zero means no size cap.
	TargetSize int
	// MaxStall stops the run after this many consecutive iterations that
	// produced no new query. Default 500.
	MaxStall int
	// MaxIters is a hard iteration cap. Default 200 * TargetSize or
	// 200_000 when TargetSize is zero.
	MaxIters int
	// Seed seeds the deterministic random source.
	Seed int64
	// Rules selects the recomposition rules; zero value disables all
	// (use AllRules for the paper's configuration).
	Rules RuleSet
	// RawFrontier emits the full search frontier instead of applying the
	// full-rule output filter. Stages that feed the result back into a
	// later generalization pass set it: frontier queries are
	// recomposition material there, and filtering them would discard
	// components that are often the only path to valid queries several
	// swaps away.
	RawFrontier bool
	// Budget, when set, accounts the search frontier's retained bytes
	// against a memgov budget. A denied reservation ends the search
	// early instead of growing further: the run keeps everything
	// accepted so far and flags the result Degraded. The trajectory up
	// to the stopping point is byte-identical to an unbudgeted run with
	// the same seed, because accounting never alters which candidates
	// are tried or accepted — it only decides when to stop.
	Budget *memgov.Budget
}

// Stats reports what happened during a run.
type Stats struct {
	Iterations        int
	Generated         int // distinct new queries beyond the samples
	RejectedBind      int
	RejectedJoinRule  int
	RejectedSyntactic int
	RejectedSemantic  int
	FilteredOutput    int // frontier queries removed by the full-rule output filter
	Duplicates        int
}

// Result is the output of Generalize.
type Result struct {
	// Queries is the generalized set: the masked, alias-resolved samples
	// followed by all generated queries. Every query is bound against
	// the database (column references qualified). Streaming runs leave
	// it nil — the sink saw every query already.
	Queries []*sqlast.Query
	Stats   Stats
	// PrunedByRule counts, per sqlcheck rule ID, the queries the
	// semantic analyzer discarded — both candidates rejected by the
	// in-search Algorithm 1 aggregate check and frontier queries removed
	// by the full-rule output filter. The sum over all rules equals
	// Stats.RejectedSemantic.
	PrunedByRule map[string]int
	// Degraded reports that the memory budget ended the search early:
	// the emitted pool is a truncated prefix of what an unbudgeted run
	// would produce, not a failure.
	Degraded bool
	// DegradeReason carries the first budget denial's message.
	DegradeReason string
}

// Sink consumes the emitted pool queries of a streaming run, in pool
// order (masked alias-resolved samples first, then generated queries
// in acceptance order). A sink error aborts the run and is returned
// from Stream verbatim. The query stays owned by the generalizer's
// frontier; sinks that retain it beyond the call must account for (or
// copy) it themselves.
type Sink func(q *sqlast.Query) error

// limits are the Rule 2 caps collected from the sample set.
type limits struct {
	selectItems int
	wherePreds  int
	groupKeys   int
	orderKeys   int
	joins       int
	compound    bool
}

// Generalize runs the compositional generalization algorithm and
// materializes the whole pool in RAM. It is the collecting wrapper
// around Stream; large or budget-governed runs should use Stream
// directly so each candidate is accounted as it arrives instead of
// accumulating.
func Generalize(db *schema.Database, samples []*sqlast.Query, cfg Config) *Result {
	var queries []*sqlast.Query
	res, err := Stream(db, samples, cfg, func(q *sqlast.Query) error {
		queries = append(queries, q)
		return nil
	})
	if err != nil {
		// Only a sink error reaches here and the collecting sink cannot
		// fail; return what the run produced regardless.
		return res
	}
	res.Queries = queries
	return res
}

// queryBytes estimates the bytes one frontier tree retains, derived
// from its fingerprint so the estimate is deterministic across runs.
// memgov is an accountant, not an allocator: the multiplier reflects
// that an AST node graph weighs roughly an order of magnitude more
// than its printed form.
func queryBytes(fp string) int64 { return int64(len(fp))*8 + 256 }

// Stream runs the compositional generalization algorithm as a
// streaming producer: every emitted pool query flows through sink the
// moment it is accepted (pruning, dedup and the full-rule output
// filter all applied incrementally), instead of materializing in a
// result slice. Emission order and content are byte-identical to
// Generalize with the same configuration. Result.Queries stays nil.
//
// The returned error is a sink error, and nothing else: budget
// denials end the search gracefully (Result.Degraded) and are never
// returned as errors.
func Stream(db *schema.Database, samples []*sqlast.Query, cfg Config, sink Sink) (*Result, error) {
	if cfg.MaxStall <= 0 {
		cfg.MaxStall = 500
	}
	if cfg.MaxIters <= 0 {
		if cfg.TargetSize > 0 {
			cfg.MaxIters = 200 * cfg.TargetSize
		} else {
			cfg.MaxIters = 200_000
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{PrunedByRule: map[string]int{}}
	// The frontier reservation covers the trees the search retains; it
	// is released when the run returns because the frontier dies with
	// it — sinks account separately for whatever they keep.
	frontier := cfg.Budget.Hold()
	defer frontier.Release()
	degrade := func(err error) {
		res.Degraded = true
		if res.DegradeReason == "" {
			res.DegradeReason = err.Error()
		}
	}
	// Two analyzer configurations drive the semantic pruning. The
	// in-search check applies the Algorithm 1 aggregate-coherence
	// conditions: candidates that fail it are discarded before entering
	// the search frontier, exactly as the paper prunes during
	// recomposition. The full rule set (join connectivity, predicate
	// type compatibility, ORDER BY scope, subquery shape, strict
	// aggregation) is stricter than the search prune and runs as an
	// output filter after the loop: its rejects stay in the frontier —
	// their components are legitimate recomposition material and often
	// the only path to valid queries several swaps away — but are
	// withheld from the emitted pool.
	searchCheck := sqlcheck.New(db, sqlcheck.AggGroup{Core: true})
	checker := sqlcheck.New(db)

	// emit applies the full-rule output filter incrementally — each
	// frontier tree is vetted exactly once, at acceptance, with the
	// same verdict and order the end-of-run filter used to produce —
	// and hands survivors to the sink.
	emit := func(q *sqlast.Query) error {
		if !cfg.RawFrontier {
			if diag := sqlcheck.FirstError(checker.CheckBound(q)); diag != nil {
				res.Stats.RejectedSemantic++
				res.Stats.FilteredOutput++
				res.PrunedByRule[diag.Rule]++
				return nil
			}
		}
		return sink(q)
	}

	// Normalize samples: bind, resolve aliases (skipped for self-joins),
	// mask literal values.
	var trees []*sqlast.Query
	seen := map[string]bool{}
	for _, s := range samples {
		q := prepare(db, s)
		if q == nil {
			continue
		}
		fp := sqlast.Fingerprint(q)
		if seen[fp] {
			continue
		}
		if err := frontier.Grow(queryBytes(fp)); err != nil {
			degrade(err)
			break
		}
		seen[fp] = true
		trees = append(trees, q)
		if err := emit(q); err != nil {
			return res, err
		}
	}
	if len(trees) == 0 || res.Degraded {
		return res, nil
	}

	lim := collectLimits(trees)
	allowedJoins := collectJoinPaths(db, trees)
	pool := buildPool(trees, cfg.Rules.Frequency)
	preds := collectPredicates(trees)

	stall := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		if cfg.TargetSize > 0 && len(trees) >= cfg.TargetSize {
			break
		}
		if stall >= cfg.MaxStall {
			break
		}
		res.Stats.Iterations++
		stall++

		base := trees[rng.Intn(len(trees))]
		var cand *sqlast.Query
		// Recomposition happens at three granularities of the parse
		// tree: whole-clause swaps (the common case), table terminal
		// substitution inside the from/join component (pruned by
		// Rule 1), and predicate conjunction inside the where component
		// (pruned by Rule 2).
		switch op := rng.Float64(); {
		case op < 0.70:
			kinds := presentKinds(base, pool)
			if len(kinds) == 0 {
				continue
			}
			kind := kinds[rng.Intn(len(kinds))]
			donors := pool[kind]
			donor := donors[rng.Intn(len(donors))]
			cand = component.Replace(base, donor)
		case op < 0.85:
			cand = substituteTable(rng, db, base)
		default:
			cand = conjoinPredicate(rng, base, preds)
		}
		if cand == nil {
			continue
		}

		if cfg.Rules.Syntactic && !withinLimits(cand, lim) {
			res.Stats.RejectedSyntactic++
			continue
		}
		if err := db.Bind(cand); err != nil {
			res.Stats.RejectedBind++
			continue
		}
		if diag := sqlcheck.FirstError(searchCheck.CheckBound(cand)); diag != nil {
			res.Stats.RejectedSemantic++
			res.PrunedByRule[diag.Rule]++
			continue
		}
		if cfg.Rules.Join && !joinPathsAllowed(db, cand, allowedJoins) {
			res.Stats.RejectedJoinRule++
			continue
		}
		fp := sqlast.Fingerprint(cand)
		if seen[fp] {
			res.Stats.Duplicates++
			continue
		}
		if err := frontier.Grow(queryBytes(fp)); err != nil {
			// The budget refused further frontier growth: stop here and
			// keep everything already emitted — a truncated pool is the
			// graceful form of this failure, not an error.
			degrade(err)
			break
		}
		seen[fp] = true
		trees = append(trees, cand)
		res.Stats.Generated++
		stall = 0
		if err := emit(cand); err != nil {
			return res, err
		}
	}
	return res, nil
}

// prepare binds, alias-resolves and masks one sample; returns nil when
// the sample does not bind against the database.
func prepare(db *schema.Database, q *sqlast.Query) *sqlast.Query {
	c := q.Clone()
	if err := db.Bind(c); err != nil {
		return nil
	}
	if !hasSelfJoin(c) {
		sqlast.ResolveAliases(c)
	}
	sqlast.MaskValues(c)
	// Re-bind to keep qualified references consistent after resolution.
	if err := db.Bind(c); err != nil {
		return nil
	}
	return c
}

func hasSelfJoin(q *sqlast.Query) bool {
	found := false
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		names := map[string]int{}
		for _, t := range sub.Select.From.Tables {
			if t.Sub == nil {
				names[strings.ToLower(t.Name)]++
			}
		}
		for _, n := range names {
			if n > 1 {
				found = true
			}
		}
	})
	return found
}

// substituteTable replaces one base-table terminal of the top-level FROM
// with another table of the database. Most results fail binding or the
// Join Rule; the survivors extend single-table coverage (the paper's
// Fig. 4 recomposition, where a "join"-type subtree gains a new table
// terminal).
func substituteTable(rng *rand.Rand, db *schema.Database, base *sqlast.Query) *sqlast.Query {
	cand := base.Clone()
	s := cand.Select
	if len(s.From.Tables) == 0 || len(db.Tables) < 2 {
		return nil
	}
	ti := rng.Intn(len(s.From.Tables))
	if s.From.Tables[ti].Sub != nil {
		return nil
	}
	repl := db.Tables[rng.Intn(len(db.Tables))]
	old := s.From.Tables[ti].Name
	if strings.EqualFold(repl.Name, old) {
		return nil
	}
	s.From.Tables[ti].Name = repl.Name
	// Rewrite qualified references from the old table to the new one so
	// the candidate is not trivially unbound.
	rewrite := func(c *sqlast.ColumnRef) {
		if strings.EqualFold(c.Table, old) {
			c.Table = repl.Name
		}
	}
	for _, c := range sqlast.SelectColumns(s) {
		rewrite(c)
	}
	return cand
}

// conjoinPredicate extends the base query's WHERE clause with one more
// sample predicate (an AND at the condition non-terminal).
func conjoinPredicate(rng *rand.Rand, base *sqlast.Query, preds []sqlast.Expr) *sqlast.Query {
	if len(preds) == 0 {
		return nil
	}
	cand := base.Clone()
	s := cand.Select
	if s.Where == nil {
		return nil
	}
	p := sqlast.CloneExpr(preds[rng.Intn(len(preds))])
	pfp := strings.ToLower(sqlast.ExprString(p))
	for _, existing := range sqlast.Predicates(s.Where) {
		if strings.ToLower(sqlast.ExprString(existing)) == pfp {
			return nil
		}
	}
	s.Where = &sqlast.Binary{Op: "AND", L: s.Where, R: p}
	return cand
}

// collectPredicates gathers the atomic predicates of all sample WHERE
// clauses (top-level blocks only; Rule 4 keeps subqueries whole inside
// their predicate).
func collectPredicates(trees []*sqlast.Query) []sqlast.Expr {
	var out []sqlast.Expr
	seen := map[string]bool{}
	for _, t := range trees {
		for _, p := range sqlast.Predicates(t.Select.Where) {
			fp := strings.ToLower(sqlast.ExprString(p))
			if seen[fp] {
				continue
			}
			seen[fp] = true
			out = append(out, sqlast.CloneExpr(p))
		}
	}
	return out
}

// buildPool gathers donor components per kind. With frequency
// preservation the pool keeps one entry per occurrence, so frequent
// components are sampled proportionally more often; otherwise the pool
// is deduplicated.
func buildPool(trees []*sqlast.Query, frequency bool) map[component.Kind][]component.Component {
	pool := map[component.Kind][]component.Component{}
	seen := map[string]bool{}
	for _, t := range trees {
		for _, c := range component.Extract(t) {
			if !frequency {
				fp := c.Fingerprint()
				if seen[fp] {
					continue
				}
				seen[fp] = true
			}
			pool[c.Kind] = append(pool[c.Kind], c)
		}
	}
	return pool
}

// presentKinds lists the component kinds that can be swapped on this
// tree: kinds the tree has and for which donors exist. From and join
// components are interchangeable only with their own kind, matching the
// paper's typed non-terminal selection.
func presentKinds(q *sqlast.Query, pool map[component.Kind][]component.Component) []component.Kind {
	var out []component.Kind
	for _, c := range component.Extract(q) {
		if len(pool[c.Kind]) > 0 {
			out = append(out, c.Kind)
		}
	}
	return out
}

func collectLimits(trees []*sqlast.Query) limits {
	var lim limits
	for _, t := range trees {
		sqlast.WalkQueries(t, func(sub *sqlast.Query) {
			s := sub.Select
			lim.selectItems = max(lim.selectItems, len(s.Items))
			lim.wherePreds = max(lim.wherePreds, len(sqlast.Predicates(s.Where)))
			lim.groupKeys = max(lim.groupKeys, len(s.GroupBy))
			lim.orderKeys = max(lim.orderKeys, len(s.OrderBy))
			lim.joins = max(lim.joins, len(s.From.Joins))
		})
		if t.IsCompound() {
			lim.compound = true
		}
	}
	return lim
}

func withinLimits(q *sqlast.Query, lim limits) bool {
	ok := true
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		s := sub.Select
		if len(s.Items) > lim.selectItems ||
			len(sqlast.Predicates(s.Where)) > lim.wherePreds ||
			len(s.GroupBy) > lim.groupKeys ||
			len(s.OrderBy) > lim.orderKeys ||
			len(s.From.Joins) > lim.joins {
			ok = false
		}
	})
	if q.IsCompound() && !lim.compound {
		ok = false
	}
	return ok
}

// collectJoinPaths returns the canonical join-path identities of every
// block of every sample (the Rule 1 allow-list). Single-table blocks
// contribute the empty path, which is always allowed.
func collectJoinPaths(db *schema.Database, trees []*sqlast.Query) map[string]bool {
	allowed := map[string]bool{"": true}
	for _, t := range trees {
		sqlast.WalkQueries(t, func(sub *sqlast.Query) {
			allowed[joinPathKey(db, sub.Select)] = true
		})
	}
	return allowed
}

func joinPathsAllowed(db *schema.Database, q *sqlast.Query, allowed map[string]bool) bool {
	ok := true
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		if !allowed[joinPathKey(db, sub.Select)] {
			ok = false
		}
	})
	return ok
}

func joinPathKey(db *schema.Database, s *sqlast.Select) string {
	edges := schema.JoinEdges(db, s)
	if len(edges) == 0 {
		return ""
	}
	keys := make([]string, 0, len(edges))
	for _, e := range edges {
		a := strings.ToLower(e.LeftTable + "." + e.LeftColumn)
		b := strings.ToLower(e.RightTable + "." + e.RightColumn)
		if b < a {
			a, b = b, a
		}
		keys = append(keys, a+"="+b)
	}
	sort.Strings(keys)
	return strings.Join(keys, "&")
}
