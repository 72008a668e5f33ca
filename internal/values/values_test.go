package values_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/values"
)

func linkerWithContent() *values.Linker {
	db := schematest.Employee()
	in := engine.NewInstance(db)
	n, s := engine.Num, engine.Str
	in.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
	in.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
	in.MustInsert("shop", n(1), s("Red Bull"), s("Madrid"), s("Center"), n(120), s("Carla"))
	return values.NewLinker(db, in)
}

func TestExtractNumbersAndQuotes(t *testing.T) {
	l := values.NewLinker(schematest.Employee(), nil)
	vals := l.Extract(`employees older than 30 named "John Smith"`)
	var nums, texts []string
	for _, v := range vals {
		if v.IsNum {
			nums = append(nums, v.Text)
		} else {
			texts = append(texts, v.Text)
		}
	}
	if len(nums) != 1 || nums[0] != "30" {
		t.Errorf("numbers = %v", nums)
	}
	if len(texts) != 1 || texts[0] != "John Smith" {
		t.Errorf("texts = %v", texts)
	}
}

// TestExtractNumbersNeedDigits: the words strconv.ParseFloat also
// accepts ("nan", "inf", "infinity", in any case) are not numbers in a
// question, while every digit-bearing float still is.
func TestExtractNumbersNeedDigits(t *testing.T) {
	l := values.NewLinker(schematest.Employee(), nil)
	for _, c := range []struct {
		nl   string
		nums []string
	}{
		{"Which employees are named Nan?", nil},
		{"salary above infinity", nil},
		{"bonus between INF and Infinity", nil},
		{"employees older than 30 with a bonus over 1e3", []string{"30", "1e3"}},
	} {
		var nums []string
		for _, v := range l.Extract(c.nl) {
			if v.IsNum {
				nums = append(nums, v.Text)
			}
		}
		if !reflect.DeepEqual(nums, c.nums) {
			t.Errorf("Extract(%q) numbers = %q, want %q", c.nl, nums, c.nums)
		}
	}
}

func TestExtractCellValues(t *testing.T) {
	l := linkerWithContent()
	vals := l.Extract("which employees live in Austin")
	found := false
	for _, v := range vals {
		if strings.EqualFold(v.Text, "austin") {
			found = true
			if len(v.Columns) == 0 {
				t.Error("cell value lacks column hints")
			}
		}
	}
	if !found {
		t.Errorf("Austin not extracted: %+v", vals)
	}
	// Multi-word cell value.
	vals = l.Extract("mechanics of the red bull team")
	found = false
	for _, v := range vals {
		if strings.EqualFold(v.Text, "red bull") {
			found = true
		}
	}
	if !found {
		t.Errorf("multi-word cell value not extracted: %+v", vals)
	}
}

func TestDialectMentionsColumns(t *testing.T) {
	l := linkerWithContent()
	nl := "which employees live in Austin"
	good := "Find the name of employee. Return results only for employee that city is value."
	bad := "Find the name of employee. Return results only for employee that age is greater than value."
	if !l.DialectMentionsColumns(nl, good) {
		t.Error("dialect mentioning 'city' should pass")
	}
	if l.DialectMentionsColumns(nl, bad) {
		t.Error("dialect without 'city' should be filtered")
	}
	// No linked values: everything passes.
	if !l.DialectMentionsColumns("how many employees", bad) {
		t.Error("value-free NL should not filter")
	}
}

func TestFillPlaceholders(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value' AND age > 'value'")
	schematest.Employee() // (db only used through linker)
	out := l.FillPlaceholders(q, "employees in Austin older than 30")
	s := out.String()
	if !strings.Contains(s, "city = 'Austin'") && !strings.Contains(s, "city = 'austin'") {
		t.Errorf("city placeholder not filled: %s", s)
	}
	if !strings.Contains(s, "age > 30") {
		t.Errorf("age placeholder not filled: %s", s)
	}
	// The input query must not be modified.
	if !strings.Contains(q.String(), "'value'") {
		t.Error("FillPlaceholders mutated its input")
	}
}

func TestFillPlaceholdersNested(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE employee_id IN (SELECT employee_id FROM evaluation WHERE bonus > 'value')")
	out := l.FillPlaceholders(q, "employees with a bonus over 1000")
	if !strings.Contains(out.String(), "bonus > 1000") {
		t.Errorf("nested placeholder not filled: %s", out)
	}
}

func TestFillPlaceholdersHaving(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT city FROM employee GROUP BY city HAVING COUNT(*) > 'value'")
	out := l.FillPlaceholders(q, "cities with more than 3 employees")
	if !strings.Contains(out.String(), "COUNT(*) > 3") {
		t.Errorf("having placeholder not filled: %s", out)
	}
}

func TestFillPlaceholdersNoValues(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value'")
	out := l.FillPlaceholders(q, "show employees in that city")
	lit := out.Select.Where.(*sqlast.Binary).R.(*sqlast.Lit)
	if lit.Kind != sqlast.PlaceholderLit {
		t.Errorf("placeholder should survive when no value is available: %s", out)
	}
}

func TestRequiredColumns(t *testing.T) {
	l := linkerWithContent()
	cols := l.RequiredColumns("employees in Madrid")
	if len(cols) == 0 {
		t.Fatal("Madrid should imply columns")
	}
	// Madrid occurs in employee.city and shop.location.
	tables := map[string]bool{}
	for _, c := range cols {
		tables[strings.ToLower(c.Table)] = true
	}
	if !tables["employee"] || !tables["shop"] {
		t.Errorf("expected hints in employee and shop: %+v", cols)
	}
}

// TestFillCopyContract pins what the translate path relies on to skip
// copies: Fill never modifies its input and returns what filling a
// copy returns; and when the question has no values or the query has
// no placeholder Fill can reach (HasPlaceholder), Fill's result equals
// the query itself, so the query can stand in for it.
func TestFillCopyContract(t *testing.T) {
	l := linkerWithContent()
	queries := []string{
		"SELECT name FROM employee WHERE city = 'value' AND age > 'value'",
		"SELECT name FROM employee WHERE age BETWEEN 'value' AND 'value'",
		"SELECT city FROM employee GROUP BY city HAVING COUNT(*) > 'value'",
		"SELECT name FROM employee WHERE employee_id IN (SELECT employee_id FROM evaluation WHERE bonus > 'value')",
		"SELECT name FROM employee AS T1 WHERE EXISTS (SELECT * FROM evaluation AS T2 WHERE T2.bonus > 'value')",
		"SELECT city FROM (SELECT city FROM employee WHERE age > 'value') AS sub",
		"SELECT name FROM employee UNION SELECT manager_name FROM shop WHERE number_products > 'value'",
		"SELECT name FROM employee WHERE 'value' = city",
		"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
		"SELECT name FROM employee WHERE city = 'Austin'",
		"SELECT COUNT(*) FROM employee",
	}
	questions := []string{
		"employees in Austin older than 30",
		"cities with more than 3 employees between 20 and 40",
		"who works at Red Bull",
		"show every employee",
	}
	reached := map[bool]int{}
	for _, src := range queries {
		for _, nl := range questions {
			q := sqlparse.MustParse(src)
			vals := l.Extract(nl)
			out := l.Fill(q, vals)
			if !reflect.DeepEqual(q, sqlparse.MustParse(src)) {
				t.Fatalf("Fill(%q) for %q modified its input: %s", src, nl, q)
			}
			if out == q {
				t.Fatalf("Fill(%q) returned its input, not a copy", src)
			}
			if viaCopy := l.Fill(q.Clone(), vals); !reflect.DeepEqual(out, viaCopy) {
				t.Fatalf("Fill(%q) for %q: %s, filling a copy gives %s", src, nl, out, viaCopy)
			}
			skip := len(vals) == 0 || !values.HasPlaceholder(q)
			if skip && !reflect.DeepEqual(out, q) {
				t.Fatalf("Fill(%q) for %q changed a query it cannot fill: %s", src, nl, out)
			}
			reached[reflect.DeepEqual(out, q)]++
		}
	}
	if reached[false] == 0 || reached[true] == 0 {
		t.Fatalf("cases filled / unchanged: %d / %d, want both", reached[false], reached[true])
	}
	for _, src := range queries[:7] {
		if !values.HasPlaceholder(sqlparse.MustParse(src)) {
			t.Errorf("HasPlaceholder(%q) = false", src)
		}
	}
	for _, src := range queries[7:] {
		if values.HasPlaceholder(sqlparse.MustParse(src)) {
			t.Errorf("HasPlaceholder(%q) = true", src)
		}
	}
}
