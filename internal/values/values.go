// Package values implements GAR's value post-processing step (§V-A3).
// GAR masks literal values during generalization and never uses cell
// values during ranking; after ranking, this package (1) filters ranked
// candidates whose dialect lacks a column implied by a literal value in
// the NL query, and (2) re-instantiates placeholder literals from values
// found in the NL query, enabling execution-accuracy evaluation.
package values

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/text"
)

// ColRef names a schema column.
type ColRef struct {
	Table, Column string
}

// Linker links NL literal values to schema columns, optionally using a
// populated instance's cell values.
type Linker struct {
	db *schema.Database
	// cellCols maps each distinct lower-cased text cell value to the
	// columns it occurs in; maxCell is the longest key's length.
	cellCols map[string][]ColRef
	maxCell  int
}

// NewLinker builds a linker. content may be nil; then only quoted spans
// and numbers are linked, without column hints.
func NewLinker(db *schema.Database, content *engine.Instance) *Linker {
	l := &Linker{db: db, cellCols: map[string][]ColRef{}}
	if content == nil {
		return l
	}
	for tname, td := range content.Tables {
		t := db.Table(tname)
		if t == nil {
			continue
		}
		for _, row := range td.Rows {
			for ci, v := range row {
				if v.Null || v.IsNum || ci >= len(td.Columns) {
					continue
				}
				key := strings.ToLower(v.Str)
				if key == "" {
					continue
				}
				ref := ColRef{Table: t.Name, Column: td.Columns[ci]}
				if !containsRef(l.cellCols[key], ref) {
					l.cellCols[key] = append(l.cellCols[key], ref)
				}
				l.maxCell = max(l.maxCell, len(key))
			}
		}
	}
	return l
}

func containsRef(refs []ColRef, r ColRef) bool {
	for _, x := range refs {
		if strings.EqualFold(x.Table, r.Table) && strings.EqualFold(x.Column, r.Column) {
			return true
		}
	}
	return false
}

// NLValue is one literal value detected in an NL query.
type NLValue struct {
	Text  string
	IsNum bool
	// Columns are the schema columns whose cells contain this value
	// (empty without content linking).
	Columns []ColRef
}

// Extract finds literal values in the NL query: quoted spans, known
// cell values (longest match first; equal lengths in order of
// appearance), and numbers.
func (l *Linker) Extract(nl string) []NLValue {
	var out []NLValue
	// seen holds the lower-cased text of every value added so far.
	var seen []string
	isSeen := func(key string) bool {
		for _, s := range seen {
			if s == key {
				return true
			}
		}
		return false
	}
	add := func(v NLValue) {
		key := strings.ToLower(v.Text)
		if key == "" || isSeen(key) {
			return
		}
		seen = append(seen, key)
		out = append(out, v)
	}

	// Quoted spans: "red bull" or 'red bull'.
	for _, quote := range []byte{'"', '\''} {
		s := nl
		for {
			i := strings.IndexByte(s, quote)
			if i < 0 {
				break
			}
			j := strings.IndexByte(s[i+1:], quote)
			if j < 0 {
				break
			}
			span := s[i+1 : i+1+j]
			if span != "" {
				add(NLValue{Text: span, Columns: l.columnsOf(span)})
			}
			s = s[i+j+2:]
		}
	}

	// Known cell values standing as words: every span of the padded
	// question that starts after a space and ends before one of " ?.,"
	// is looked up, left to right. The stable sort puts longer matches
	// first, so "new york city" wins over "york", and keeps equal
	// lengths in question order.
	for _, m := range l.cellSpans(nl) {
		covered := false
		for _, s := range seen {
			if strings.Contains(s, m) {
				covered = true
				break
			}
		}
		if !covered {
			add(NLValue{Text: m, Columns: l.cellCols[m]})
		}
	}

	// Numbers.
	for _, tok := range text.Tokenize(nl) {
		if _, err := strconv.ParseFloat(tok, 64); err == nil {
			add(NLValue{Text: tok, IsNum: true})
		}
	}
	return out
}

// cellSpans returns the distinct cell values that occur in the padded,
// lower-cased question between a space and one of " ?.,", in
// first-appearance order, stably sorted longest first.
func (l *Linker) cellSpans(nl string) []string {
	if len(l.cellCols) == 0 {
		return nil
	}
	lower := " " + strings.ToLower(nl) + " "
	var matches []string
	for start := 1; start < len(lower); start++ {
		if lower[start-1] != ' ' {
			continue
		}
		for end := start + 1; end < len(lower) && end-start <= l.maxCell; end++ {
			switch lower[end] {
			case ' ', '?', '.', ',':
			default:
				continue
			}
			span := lower[start:end]
			if _, ok := l.cellCols[span]; ok && !slices.Contains(matches, span) {
				matches = append(matches, span)
			}
		}
	}
	slices.SortStableFunc(matches, func(a, b string) int { return len(b) - len(a) })
	return matches
}

func (l *Linker) columnsOf(value string) []ColRef {
	return l.cellCols[strings.ToLower(value)]
}

// RequiredColumns returns the columns implied by the NL query's linked
// values: for every extracted value with column hints, those columns.
func (l *Linker) RequiredColumns(nl string) []ColRef {
	var out []ColRef
	for _, v := range l.Extract(nl) {
		out = append(out, v.Columns...)
	}
	return out
}

// DialectMentionsColumns reports whether the dialect expression
// mentions at least one of each required value's columns (by the
// column's NL annotation). With no required values it returns true.
func (l *Linker) DialectMentionsColumns(nl, dialectExpr string) bool {
	return l.Mentions(l.Extract(nl), dialectExpr)
}

// Mentions is DialectMentionsColumns over values already extracted from
// the question, so a caller filtering many candidates extracts once.
func (l *Linker) Mentions(vals []NLValue, dialectExpr string) bool {
	var dl string
	for _, v := range vals {
		if len(v.Columns) == 0 {
			continue
		}
		if dl == "" {
			dl = strings.ToLower(dialectExpr)
		}
		found := false
		for _, ref := range v.Columns {
			_, col := l.db.Column(ref.Table, ref.Column)
			if col == nil {
				continue
			}
			if strings.Contains(dl, strings.ToLower(col.NL())) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// FillPlaceholders returns a copy of the query with placeholder literals
// replaced by values extracted from the NL query. Values are assigned by
// type and column linking: a placeholder compared against a numeric
// column takes the next unused number; a text-column placeholder prefers
// a value linked to that column, then any remaining text value.
func (l *Linker) FillPlaceholders(q *sqlast.Query, nl string) *sqlast.Query {
	return l.Fill(q, l.Extract(nl))
}

// Fill is FillPlaceholders over values already extracted from the
// question. It never modifies q. When vals is empty or q has no
// placeholder (HasPlaceholder), the copy equals q, so a caller that
// knows as much can use q itself.
func (l *Linker) Fill(q *sqlast.Query, vals []NLValue) *sqlast.Query {
	out := q.Clone()
	usedNum := map[int]bool{}
	usedText := map[int]bool{}

	takeNum := func() (string, bool) {
		for i, v := range vals {
			if v.IsNum && !usedNum[i] {
				usedNum[i] = true
				return v.Text, true
			}
		}
		return "", false
	}
	takeText := func(table, column string) (string, bool) {
		// Prefer a value linked to the exact column.
		for i, v := range vals {
			if v.IsNum || usedText[i] {
				continue
			}
			for _, ref := range v.Columns {
				if strings.EqualFold(ref.Table, table) && strings.EqualFold(ref.Column, column) {
					usedText[i] = true
					return v.Text, true
				}
			}
		}
		for i, v := range vals {
			if !v.IsNum && !usedText[i] {
				usedText[i] = true
				return v.Text, true
			}
		}
		return "", false
	}

	eachComparison(out, func(lhs, rhs sqlast.Expr, s *sqlast.Select) {
		l.fillOne(lhs, rhs, s, takeNum, takeText)
	})
	return out
}

// HasPlaceholder reports whether Fill can change q: whether a
// comparison Fill visits (eachComparison) has a placeholder on its
// right-hand side.
func HasPlaceholder(q *sqlast.Query) bool {
	found := false
	eachComparison(q, func(_, rhs sqlast.Expr, _ *sqlast.Select) {
		if lit, ok := rhs.(*sqlast.Lit); ok && lit.Kind == sqlast.PlaceholderLit {
			found = true
		}
	})
	return found
}

// eachComparison calls fn, in order, on every comparison in a WHERE or
// HAVING of q or any of its subqueries — the places value filling
// instantiates — with its left and right operands and the SELECT it
// belongs to: once per binary operator, twice per BETWEEN (low bound,
// then high).
func eachComparison(q *sqlast.Query, fn func(lhs, rhs sqlast.Expr, s *sqlast.Select)) {
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		visit := func(e sqlast.Expr) {
			sqlast.WalkExprs(e, func(n sqlast.Expr) {
				switch x := n.(type) {
				case *sqlast.Binary:
					fn(x.L, x.R, sub.Select)
				case *sqlast.Between:
					fn(x.X, x.Lo, sub.Select)
					fn(x.X, x.Hi, sub.Select)
				}
			})
		}
		visit(sub.Select.Where)
		visit(sub.Select.Having)
	})
}

// fillOne replaces rhs with an NL value when it is a placeholder whose
// left-hand side resolves to a column.
func (l *Linker) fillOne(lhs, rhs sqlast.Expr, s *sqlast.Select,
	takeNum func() (string, bool), takeText func(table, column string) (string, bool)) {

	lit, ok := rhs.(*sqlast.Lit)
	if !ok || lit.Kind != sqlast.PlaceholderLit {
		return
	}
	var table, column string
	colType := schema.Text
	switch c := lhs.(type) {
	case *sqlast.ColumnRef:
		if t, col := l.db.ResolveColumn(s, c); col != nil {
			table, column, colType = t.Name, col.Name, col.Type
		}
	case *sqlast.Agg:
		colType = schema.Number
	}
	if colType == schema.Number {
		if v, ok := takeNum(); ok {
			lit.Kind = sqlast.NumberLit
			lit.Text = v
		}
		return
	}
	if v, ok := takeText(table, column); ok {
		lit.Kind = sqlast.StringLit
		lit.Text = v
	}
}
