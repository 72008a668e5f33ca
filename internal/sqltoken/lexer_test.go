package sqltoken_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/sqltoken"
)

func kinds(toks []sqltoken.Token) []sqltoken.Kind {
	out := make([]sqltoken.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := sqltoken.Lex("SELECT name FROM employee WHERE age >= 30")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind sqltoken.Kind
		text string
	}{
		{sqltoken.Keyword, "SELECT"},
		{sqltoken.Ident, "name"},
		{sqltoken.Keyword, "FROM"},
		{sqltoken.Ident, "employee"},
		{sqltoken.Keyword, "WHERE"},
		{sqltoken.Ident, "age"},
		{sqltoken.Symbol, ">="},
		{sqltoken.Number, "30"},
		{sqltoken.EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %v %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := sqltoken.Lex(`'single' "double"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != sqltoken.String || toks[0].Text != "single" {
		t.Errorf("single-quoted: %v", toks[0])
	}
	if toks[1].Kind != sqltoken.String || toks[1].Text != "double" {
		t.Errorf("double-quoted: %v", toks[1])
	}
	if _, err := sqltoken.Lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := sqltoken.Lex("a != b <> c <= d >= e < f > g = h")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == sqltoken.Symbol {
			ops = append(ops, tok.Text)
		}
	}
	// <> normalizes to !=.
	want := []string{"!=", "!=", "<=", ">=", "<", ">", "="}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexKeywordCaseFolding(t *testing.T) {
	toks, err := sqltoken.Lex("select Name")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != sqltoken.Keyword || toks[0].Text != "SELECT" {
		t.Errorf("keyword not upper-cased: %v", toks[0])
	}
	// Identifier case is preserved.
	if toks[1].Kind != sqltoken.Ident || toks[1].Text != "Name" {
		t.Errorf("identifier case changed: %v", toks[1])
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := sqltoken.Lex("1 2.5 100")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"1", "2.5", "100"} {
		if toks[i].Kind != sqltoken.Number || toks[i].Text != want {
			t.Errorf("number %d = %v", i, toks[i])
		}
	}
}

func TestLexBadCharacter(t *testing.T) {
	if _, err := sqltoken.Lex("a % b"); err == nil {
		t.Error("unexpected character accepted")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := sqltoken.Lex("ab  cd")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 4 {
		t.Errorf("positions wrong: %d, %d", toks[0].Pos, toks[1].Pos)
	}
}

func TestKindString(t *testing.T) {
	names := map[sqltoken.Kind]string{
		sqltoken.EOF: "EOF", sqltoken.Ident: "Ident", sqltoken.Number: "Number",
		sqltoken.String: "String", sqltoken.Keyword: "Keyword", sqltoken.Symbol: "Symbol",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// refFold is the keyword fold Lex used before it folded into a stack
// buffer: strings.ToUpper, then IsKeyword. It is the reference for
// Lex's fold of the word that starts a token.
func refFold(word string, pos int) sqltoken.Token {
	upper := strings.ToUpper(word)
	if sqltoken.IsKeyword(upper) {
		return sqltoken.Token{Kind: sqltoken.Keyword, Text: upper, Pos: pos}
	}
	return sqltoken.Token{Kind: sqltoken.Ident, Text: word, Pos: pos}
}

// checkFold lexes src and checks every word token against refFold of
// the word the source holds at its position, and every other token
// against the source text it was scanned from.
func checkFold(t *testing.T, src string) {
	t.Helper()
	toks, err := sqltoken.Lex(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	isWord := func(c byte) bool {
		return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
	}
	for _, tok := range toks {
		switch tok.Kind {
		case sqltoken.Ident, sqltoken.Keyword:
			end := tok.Pos
			for end < len(src) && isWord(src[end]) {
				end++
			}
			if want := refFold(src[tok.Pos:end], tok.Pos); tok != want {
				t.Fatalf("%q: token %v at %d, reference fold %v", src, tok, tok.Pos, want)
			}
		case sqltoken.Symbol, sqltoken.Number:
			if !strings.HasPrefix(src[tok.Pos:], tok.Text) && !(tok.Text == "!=" && strings.HasPrefix(src[tok.Pos:], "<>")) {
				t.Fatalf("%q: %v at %d is not the source text", src, tok, tok.Pos)
			}
		}
	}
}

// TestLexFoldMatchesReference: Lex folds exactly as strings.ToUpper
// then IsKeyword did, on every SQL string of a SPIDER-like pool (each
// as printed, lower-cased and upper-cased) and on the edge cases:
// every keyword in lower case, mixed case, identifiers that contain or
// extend a keyword, words longer than the fold buffer, leading
// underscores and digits.
func TestLexFoldMatchesReference(t *testing.T) {
	edges := []string{
		"select from where group by having order limit asc desc join on as and or not in like between exists",
		"union intersect except distinct count sum avg min max all is null inner left outer",
		"SeLeCt sElEcT Select iNtErSeCt",
		"order_id counts from_date selected intersects intersectx outer_join",
		"intersect_with_a_name_longer_than_the_fold_buffer INTERSECTION aVeryLongIdentifierIndeed",
		"_select _ __ _from select_ t1.age t2 col9 a1b2c3",
		"SELECT count(*) FROM t1 WHERE a1 >= 10 AND b <> 2.5",
	}
	for _, src := range edges {
		checkFold(t, src)
	}
	bench := datasets.SpiderLike(datasets.SpiderConfig{TrainDBs: 1, ValDBs: 1, TrainPerDB: 10, ValPerDB: 25, Seed: 3})
	queries := 0
	for _, db := range datasets.DBNames(bench.Val) {
		sys := core.New(bench.Bundle(db).Schema, core.Options{GeneralizeSize: 300, Seed: 42})
		sys.Prepare(datasets.GoldQueries(bench.Val, db))
		for _, c := range sys.Pool() {
			src := c.SQL.String()
			checkFold(t, src)
			checkFold(t, strings.ToLower(src))
			checkFold(t, strings.ToUpper(src))
			queries++
		}
	}
	if queries < 100 {
		t.Fatalf("only %d pool queries checked", queries)
	}
}

// TestLexAllocatesOnlyTokens: lexing a keyword-heavy query in lower
// case, where every keyword must be folded, allocates the token slice
// and nothing else.
func TestLexAllocatesOnlyTokens(t *testing.T) {
	const src = "select count(*) , t1.city from employee as t1 join evaluation as t2 on t1.id = t2.id " +
		"where t1.age > 30 and not t2.bonus between 1 and 5 group by t1.city having count(*) > 1 " +
		"order by t1.age desc limit 1"
	if n := testing.AllocsPerRun(20, func() {
		if _, err := sqltoken.Lex(src); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Lex allocates %v times, want 1", n)
	}
}
