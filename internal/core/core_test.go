package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/norm"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

func employeeSamples() []*sqlast.Query {
	srcs := []string{
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
		"SELECT name FROM employee WHERE age > 30",
		"SELECT age FROM employee WHERE city = 'Austin'",
		"SELECT city, COUNT(*) FROM employee GROUP BY city",
		"SELECT AVG(bonus) FROM evaluation",
		"SELECT COUNT(*) FROM employee",
		"SELECT shop_name FROM shop ORDER BY number_products DESC LIMIT 1",
		"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
		"SELECT city FROM employee",
	}
	out := make([]*sqlast.Query, 0, len(srcs))
	for _, s := range srcs {
		out = append(out, sqlparse.MustParse(s))
	}
	return out
}

func employeeExamples() []ltr.Example {
	mk := func(nl, sql string) ltr.Example {
		return ltr.Example{NL: nl, Gold: sqlparse.MustParse(sql)}
	}
	return []ltr.Example{
		mk("find the name of the employee who got the highest one time bonus",
			"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1"),
		mk("which employees are older than 30", "SELECT name FROM employee WHERE age > 30"),
		mk("what is the age of employees living in Austin", "SELECT age FROM employee WHERE city = 'Austin'"),
		mk("how many employees live in each city", "SELECT city, COUNT(*) FROM employee GROUP BY city"),
		mk("what is the average bonus", "SELECT AVG(bonus) FROM evaluation"),
		mk("how many employees are there", "SELECT COUNT(*) FROM employee"),
		mk("which shop has the most products", "SELECT shop_name FROM shop ORDER BY number_products DESC LIMIT 1"),
		mk("who is the oldest employee", "SELECT name FROM employee ORDER BY age DESC LIMIT 1"),
		mk("list the cities employees live in", "SELECT city FROM employee"),
	}
}

func trainedSystem(t *testing.T, opts core.Options) *core.System {
	t.Helper()
	return trainedUnder(t, opts, nil)
}

// trainedUnder is trainedSystem built under budget (nil: unbudgeted).
func trainedUnder(t *testing.T, opts core.Options, budget *memgov.Budget) *core.System {
	t.Helper()
	if opts.GeneralizeSize == 0 {
		opts.GeneralizeSize = 300
	}
	if opts.RetrievalK == 0 {
		opts.RetrievalK = 10
	}
	opts.EncoderEpochs = 12
	opts.RerankEpochs = 40
	opts.Seed = 42
	sys := core.New(schematest.Employee(), opts)
	sys.SetResources(budget)
	sys.Prepare(employeeSamples())
	if err := sys.Train(employeeExamples()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEndToEndFig1(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	// The paper's running example: the query both GAP and SMBOP
	// mistranslate must rank first for GAR.
	tr, err := sys.Translate("find the name of the employee who got the highest one time bonus")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Top == nil {
		t.Fatal("no translation")
	}
	gold := sqlparse.MustParse(
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1")
	if !norm.ExactMatch(tr.Top.SQL, gold) {
		t.Errorf("top translation wrong:\n got: %s\nwant: %s\ndialect: %s", tr.Top.SQL, gold, tr.Top.Dialect)
	}
}

func TestEndToEndTrainingAccuracy(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	correct := 0
	for _, ex := range employeeExamples() {
		tr, err := sys.Translate(ex.NL)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Top != nil && norm.ExactMatch(tr.Top.SQL, sys.BindGold(ex.Gold)) {
			correct++
		}
	}
	if correct < 7 {
		t.Errorf("training-set accuracy too low: %d/9", correct)
	}
}

func TestComponentSimilarGeneralization(t *testing.T) {
	// An NL query whose gold SQL is NOT a sample but is component-similar
	// (the Fig. 1 "age" variant) must be answerable.
	sys := trainedSystem(t, core.Options{GeneralizeSize: 2000, RetrievalK: 50})
	want := sys.BindGold(sqlparse.MustParse(
		"SELECT T1.age FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1"))
	if !sys.HasCandidate(want) {
		t.Fatal("component-similar target missing from pool")
	}
	tr, err := sys.Translate("find the age of the employee who got the highest one time bonus")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, c := range tr.Ranked {
		if i >= 10 {
			break
		}
		if norm.ExactMatch(c.SQL, want) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("component-similar gold not in top-10; top dialect: %s", tr.Top.Dialect)
	}
}

func TestValuePostProcessing(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	in := engine.NewInstance(sys.DB)
	n, s := engine.Num, engine.Str
	in.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
	in.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
	sys.SetContent(in)

	tr, err := sys.Translate("what is the age of employees living in Austin")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Top == nil {
		t.Fatal("no translation")
	}
	got := tr.Top.SQL.String()
	if !strings.Contains(strings.ToLower(got), "city = 'austin'") {
		t.Errorf("value not instantiated: %s", got)
	}
	// The instantiated query must execute.
	res, err := in.Exec(tr.Top.SQL)
	if err != nil {
		t.Fatalf("translated query does not execute: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "32" {
		t.Errorf("execution result wrong: %v", res.Rows)
	}
}

func TestErrorAttributionHooks(t *testing.T) {
	sys := trainedSystem(t, core.Options{})
	gold := employeeExamples()[0].Gold
	if !sys.HasCandidate(gold) {
		t.Error("sample gold must be in the pool")
	}
	if sys.HasCandidate(sqlparse.MustParse("SELECT is_full_time FROM hiring")) {
		t.Error("foreign query must not be in the pool")
	}
	if !sys.RetrievalContains(employeeExamples()[0].NL, gold, 10) {
		t.Error("gold should be retrieved in top-10 for its own NL")
	}
}

func TestAblationNoRerank(t *testing.T) {
	sys := trainedSystem(t, core.Options{NoRerank: true})
	tr, err := sys.Translate("how many employees are there")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Top == nil {
		t.Fatal("no translation under retrieval-only mode")
	}
}

func TestAblationNoDialect(t *testing.T) {
	sys := trainedSystem(t, core.Options{NoDialect: true})
	// The pool must contain raw SQL strings.
	for _, c := range sys.Pool()[:3] {
		if !strings.HasPrefix(c.Dialect, "SELECT") {
			t.Fatalf("expected raw SQL in ablation pool, got %q", c.Dialect)
		}
	}
	if _, err := sys.Translate("how many employees are there"); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	sys := core.New(schematest.Employee(), core.Options{})
	if _, err := sys.Translate("anything"); err == nil {
		t.Error("Translate before Train must fail")
	}
	if err := sys.Train(nil); err == nil {
		t.Error("Train before Prepare must fail")
	}
	if err := sys.UseModels(&core.Models{}); err == nil {
		t.Error("UseModels before Prepare must fail")
	}
}

func TestCrossDatabaseDeployment(t *testing.T) {
	// Train models on the employee database, deploy on flights: the
	// paper's unseen-database setting. The deployed system must produce
	// reasonable translations via the transferable lexical models.
	trainSys := trainedSystem(t, core.Options{})
	models, err := core.TrainModels(
		[]core.TrainingSet{{Sys: trainSys, Examples: employeeExamples()}},
		trainSys.Opts)
	if err != nil {
		t.Fatal(err)
	}

	flights := schematest.Flights()
	valSys := core.New(flights, core.Options{GeneralizeSize: 200, RetrievalK: 10, Seed: 7})
	valSys.Prepare([]*sqlast.Query{
		sqlparse.MustParse("SELECT country FROM airlines WHERE airline = 'JetBlue'"),
		sqlparse.MustParse("SELECT COUNT(*) FROM flights"),
		sqlparse.MustParse("SELECT airline FROM airlines"),
	})
	if err := valSys.UseModels(models); err != nil {
		t.Fatal(err)
	}
	tr, err := valSys.Translate("how many flights are there")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Top == nil {
		t.Fatal("no translation on unseen database")
	}
	want := valSys.BindGold(sqlparse.MustParse("SELECT COUNT(*) FROM flights"))
	found := false
	for i, c := range tr.Ranked {
		if i >= 3 {
			break
		}
		if norm.ExactMatch(c.SQL, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("count query not in top-3 on unseen database; top: %s", tr.Top.SQL)
	}
}
