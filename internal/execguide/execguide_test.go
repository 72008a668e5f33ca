package execguide

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/generalize"
	"repro/internal/schema"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

func mustParse(t *testing.T, srcs ...string) []*sqlast.Query {
	t.Helper()
	out := make([]*sqlast.Query, len(srcs))
	for i, s := range srcs {
		out[i] = sqlparse.MustParse(s)
	}
	return out
}

// employeeGuide builds the guide exactly as core does for the employee
// fixture: seeds harvested from the spec's sample queries.
func employeeGuide(t *testing.T, cfg Config) *Guide {
	t.Helper()
	db := schematest.Employee()
	return New(db, nil, HarvestSeeds(db, mustParse(t,
		"SELECT name FROM employee WHERE age > 30",
		"SELECT age FROM employee WHERE city = 'Austin'",
	)), cfg)
}

func TestHarvestSeeds(t *testing.T) {
	db := schematest.Employee()
	seeds := HarvestSeeds(db, mustParse(t,
		"SELECT T1.name FROM employee AS T1 WHERE T1.city = 'Austin'",
		"SELECT name FROM employee WHERE age > 30 AND city = 'Dallas'",
		"SELECT bonus FROM evaluation WHERE bonus BETWEEN 100 AND 200",
	))
	if got := seeds.Text["employee.city"]; !reflect.DeepEqual(got, []string{"Austin", "Dallas"}) {
		t.Errorf("employee.city seeds = %v, want [Austin Dallas]", got)
	}
	if got := seeds.Number["employee.age"]; !reflect.DeepEqual(got, []float64{30}) {
		t.Errorf("employee.age seeds = %v, want [30]", got)
	}
	if got := seeds.Number["evaluation.bonus"]; !reflect.DeepEqual(got, []float64{100, 200}) {
		t.Errorf("evaluation.bonus seeds = %v, want [100 200]", got)
	}
}

func TestHarvestSeedsSkipsPlaceholdersAndUnresolved(t *testing.T) {
	db := schematest.Employee()
	masked := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'Austin'")
	sqlast.MaskValues(masked)
	seeds := HarvestSeeds(db, []*sqlast.Query{
		masked,
		sqlparse.MustParse("SELECT name FROM employee WHERE nosuchcolumn = 'x'"),
	})
	if len(seeds.Text) != 0 || len(seeds.Number) != 0 {
		t.Errorf("masked/unresolvable literals were harvested: %+v", seeds)
	}
}

// TestSeedInstanceDeterministic pins the determinism guarantee: two
// guides built from the same schema and seeds hold identical instances.
func TestSeedInstanceDeterministic(t *testing.T) {
	a := employeeGuide(t, Config{})
	b := employeeGuide(t, Config{})
	q := sqlparse.MustParse("SELECT name, age, city FROM employee ORDER BY name")
	ra, err := a.Instance().Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Instance().Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if !engine.ResultsEqual(ra, rb, true) {
		t.Fatalf("seeded instances diverge:\n%v\n%v", ra.Rows, rb.Rows)
	}
}

// TestSeedInstanceJoinConsistency asserts foreign-key columns copy their
// parent key values, so every child row joins: the flights fixture has
// a text FK (airportCode) and a numeric FK (airline → airlines.uid).
func TestSeedInstanceJoinConsistency(t *testing.T) {
	db := schematest.Flights()
	g := New(db, nil, Seeds{}, Config{})
	for _, src := range []string{
		"SELECT T1.city FROM airports AS T1 JOIN flights AS T2 ON T1.airportCode = T2.destAirport",
		"SELECT T1.city FROM airports AS T1 JOIN flights AS T2 ON T1.airportCode = T2.sourceAirport",
		"SELECT T1.airline FROM airlines AS T1 JOIN flights AS T2 ON T1.uid = T2.airline",
	} {
		res, err := g.Instance().Exec(sqlparse.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows — FK seeding does not line up", src)
		}
	}
}

// TestSeedInstanceSatisfiesFilters asserts harvested literals appear in
// seeded rows (text and numeric, including placeholder filters).
func TestSeedInstanceSatisfiesFilters(t *testing.T) {
	g := employeeGuide(t, Config{})
	for _, src := range []string{
		"SELECT name FROM employee WHERE city = 'Austin'",
		"SELECT name FROM employee WHERE age > 30",
		"SELECT name FROM employee WHERE age < 30",
		"SELECT name FROM employee WHERE age = 30",
		"SELECT name FROM employee WHERE city = 'value'",
	} {
		res, err := g.Instance().Exec(sqlparse.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("%s: empty — harvested value missing from the instance", src)
		}
	}
}

func TestInspectClassification(t *testing.T) {
	g := employeeGuide(t, Config{TopK: 16})
	queries := mustParse(t,
		"SELECT name FROM employee",                          // 0: ok
		"SELECT name FROM employee WHERE age > 10000",        // 1: empty
		"SELECT name FROM employee",                          // 2: duplicate of 0
		"SELECT COUNT(*) FROM employee GROUP BY employee_id", // 3: constant (all groups count 1)
		"SELECT nosuchcolumn FROM employee",                  // 4: error
	)
	verdicts, err := g.Inspect(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	want := []Outcome{OK, Empty, Duplicate, Constant, Error}
	for i, w := range want {
		if verdicts[i].Outcome != w {
			t.Errorf("verdict[%d] = %s (%s), want %s", i, verdicts[i].Outcome, verdicts[i].Detail, w)
		}
	}
	if verdicts[0].Rows == 0 {
		t.Error("ok verdict reports zero rows")
	}
}

// TestInspectAllEmpty pins relative emptiness: when every candidate is
// empty, none is demoted — emptiness is only evidence against a
// candidate when a sibling proves the instance can answer.
func TestInspectAllEmpty(t *testing.T) {
	g := employeeGuide(t, Config{})
	queries := mustParse(t,
		"SELECT name FROM employee WHERE age > 10000",
		"SELECT city FROM employee WHERE age > 20000",
	)
	verdicts, err := g.Inspect(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if v.Outcome != OK {
			t.Errorf("verdict[%d] = %s, want ok (no sibling returned rows)", i, v.Outcome)
		}
	}
}

// slowQuery nests IN-subqueries so the engine's per-row subquery
// evaluation takes ~half a second on the sample instance — far past any
// test budget, without needing a pathological schema.
func slowQuery(t *testing.T) *sqlast.Query {
	t.Helper()
	const depth = 6
	sql := "SELECT COUNT(*) FROM employee WHERE employee_id IN (SELECT employee_id FROM employee"
	for i := 1; i < depth; i++ {
		sql += " WHERE employee_id IN (SELECT employee_id FROM employee"
	}
	sql += strings.Repeat(")", depth)
	return sqlparse.MustParse(sql)
}

func TestInspectBudgetTimeout(t *testing.T) {
	g := employeeGuide(t, Config{Budget: 10 * time.Millisecond})
	queries := []*sqlast.Query{
		slowQuery(t),
		sqlparse.MustParse("SELECT name FROM employee"),
	}
	verdicts, err := g.Inspect(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0].Outcome != Timeout {
		t.Fatalf("slow candidate classified %s, want timeout", verdicts[0].Outcome)
	}
	if verdicts[1].Outcome != OK {
		t.Fatalf("the sweep did not continue past a timeout: %s", verdicts[1].Outcome)
	}
}

// TestInspectContextEnd asserts the caller's context ending aborts the
// sweep with an error instead of a Timeout verdict — budget expiry and
// caller cancellation are different failures.
func TestInspectContextEnd(t *testing.T) {
	g := employeeGuide(t, Config{Budget: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := g.Inspect(ctx, []*sqlast.Query{slowQuery(t)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestInspectTopKCap(t *testing.T) {
	g := employeeGuide(t, Config{TopK: 2})
	queries := mustParse(t,
		"SELECT name FROM employee",
		"SELECT city FROM employee",
		"SELECT age FROM employee",
	)
	verdicts, err := g.Inspect(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2 (TopK cap)", len(verdicts))
	}
}

func TestReorder(t *testing.T) {
	verdicts := []Verdict{
		{Index: 0, Outcome: OK},
		{Index: 1, Outcome: Empty}, // soft
		{Index: 2, Outcome: Error}, // hard
		{Index: 3, Outcome: OK},
		{Index: 4, Outcome: Timeout},   // hard
		{Index: 5, Outcome: Duplicate}, // soft
	}
	got := Reorder(8, verdicts)
	want := []int{0, 3, 6, 7, 1, 5, 2, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Reorder = %v, want %v", got, want)
	}
	if got := Reorder(3, nil); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("Reorder without verdicts = %v, want identity", got)
	}
}

func TestOutcomeStringAndClass(t *testing.T) {
	cases := []struct {
		o     Outcome
		s     string
		class int
	}{
		{OK, "ok", 0}, {Empty, "empty", 1}, {Constant, "constant", 1},
		{Duplicate, "duplicate", 1}, {Error, "error", 2}, {Timeout, "timeout", 2},
	}
	for _, c := range cases {
		if c.o.String() != c.s || c.o.DemotionClass() != c.class {
			t.Errorf("%d: got (%s, %d), want (%s, %d)", int(c.o), c.o, c.o.DemotionClass(), c.s, c.class)
		}
	}
}

func TestEstimateCost(t *testing.T) {
	simple := sqlparse.MustParse("SELECT name FROM employee")
	join := sqlparse.MustParse(
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id GROUP BY T1.name ORDER BY COUNT(*) DESC LIMIT 1")
	if cs, cj := EstimateCost(simple), EstimateCost(join); cs >= cj {
		t.Errorf("join query cost %v not above simple query cost %v", cj, cs)
	}
	if f := CostFeature(nil); f != 0 {
		t.Errorf("CostFeature(nil) = %v, want 0", f)
	}
	for _, q := range []*sqlast.Query{simple, join} {
		if f := CostFeature(q); f < 0 || f >= 1 {
			t.Errorf("CostFeature(%s) = %v, out of [0,1)", q, f)
		}
	}
}

func TestContentValuesFeedSeeding(t *testing.T) {
	db := schematest.Employee()
	content := engine.NewInstance(db)
	content.MustInsert("employee", engine.Num(1), engine.Str("Alice"), engine.Num(40), engine.Str("Berlin"))
	g := New(db, content, Seeds{}, Config{})
	res, err := g.Instance().Exec(sqlparse.MustParse("SELECT name FROM employee WHERE city = 'Berlin'"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("content value 'Berlin' did not reach the seeded instance")
	}
}

// TestPoolExecutionNeverPanics is the pool-wide property test: every
// query the generalizer can produce for the employee and flights
// fixtures must execute on the seeded sample instance without
// panicking — a typed error is acceptable, a crash is not.
func TestPoolExecutionNeverPanics(t *testing.T) {
	fixtures := []struct {
		name    string
		db      *schema.Database
		samples []string
	}{
		{"employee", schematest.Employee(), []string{
			"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
			"SELECT name FROM employee WHERE age > 30",
			"SELECT age FROM employee WHERE city = 'Austin'",
			"SELECT city, COUNT(*) FROM employee GROUP BY city",
			"SELECT AVG(bonus) FROM evaluation",
			"SELECT COUNT(*) FROM employee",
			"SELECT shop_name FROM shop ORDER BY number_products DESC LIMIT 1",
			"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
			"SELECT city FROM employee",
		}},
		{"flights", schematest.Flights(), []string{
			"SELECT T1.city FROM airports AS T1 JOIN flights AS T2 ON T1.airportCode = T2.destAirport GROUP BY T1.city ORDER BY COUNT(*) DESC LIMIT 1",
			"SELECT T1.city FROM airports AS T1 JOIN flights AS T2 ON T1.airportCode = T2.sourceAirport GROUP BY T1.city ORDER BY COUNT(*) DESC LIMIT 1",
			"SELECT COUNT(*) FROM flights",
			"SELECT city FROM airports",
			"SELECT airportName FROM airports WHERE city = 'Austin'",
			"SELECT airline FROM airlines WHERE country = 'USA'",
		}},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			samples := make([]*sqlast.Query, len(fx.samples))
			for i, s := range fx.samples {
				samples[i] = sqlparse.MustParse(s)
			}
			res := generalize.Generalize(fx.db, samples, generalize.Config{
				TargetSize: 300,
				Seed:       42,
				Rules:      generalize.AllRules(),
			})
			if len(res.Queries) == 0 {
				t.Fatal("generalization produced no pool")
			}
			g := New(fx.db, nil, HarvestSeeds(fx.db, samples), Config{})
			for i, q := range res.Queries {
				execNoPanic(t, g.Instance(), q, i)
			}
		})
	}
}

// execNoPanic executes one pool query under a recover boundary; only a
// panic fails the test.
func execNoPanic(t *testing.T, inst *engine.Instance, q *sqlast.Query, i int) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Errorf("pool query %d panicked: %v\n  %s", i, rec, q)
		}
	}()
	if _, err := inst.Exec(q); err != nil && err.Error() == "" {
		// Typed errors are fine — the guide turns them into verdicts —
		// but they must carry a message for the verdict detail.
		t.Errorf("pool query %d returned an error with no message", i)
	}
}
