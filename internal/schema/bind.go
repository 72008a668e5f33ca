package schema

import (
	"fmt"
	"strings"

	"repro/internal/sqlast"
)

// Bind resolves and validates a query against the database in place:
// every column reference is checked to exist, unqualified references are
// qualified with the unique table providing them, and alias references
// are verified. Bind returns an error when a table or column cannot be
// resolved or an unqualified column is ambiguous. Derived tables
// contribute their projected column names to the scope.
func (d *Database) Bind(q *sqlast.Query) error {
	return d.bindQuery(q, nil)
}

// scopeEntry is one FROM-clause table visible to a block.
type scopeEntry struct {
	key   string // lookup key: alias if present, else table name (lower)
	table *Table // nil for derived tables
	cols  []string
}

func (d *Database) bindQuery(q *sqlast.Query, outer []scopeEntry) error {
	for cur := q; cur != nil; cur = cur.Right {
		if err := d.bindSelect(cur.Select, outer); err != nil {
			return err
		}
		if cur.Op == sqlast.SetNone {
			break
		}
	}
	return nil
}

func (d *Database) bindSelect(s *sqlast.Select, outer []scopeEntry) error {
	if s == nil || len(s.From.Tables) == 0 {
		return fmt.Errorf("schema: empty FROM clause")
	}
	var scope []scopeEntry
	for i := range s.From.Tables {
		tr := &s.From.Tables[i]
		if tr.Sub != nil {
			if err := d.bindQuery(tr.Sub, outer); err != nil {
				return err
			}
			entry := scopeEntry{key: strings.ToLower(tr.Alias)}
			for _, it := range tr.Sub.Select.Items {
				if c, ok := it.Expr.(*sqlast.ColumnRef); ok {
					entry.cols = append(entry.cols, strings.ToLower(c.Column))
				}
			}
			scope = append(scope, entry)
			continue
		}
		t := d.Table(tr.Name)
		if t == nil {
			return fmt.Errorf("schema: unknown table %q in database %s", tr.Name, d.Name)
		}
		key := strings.ToLower(tr.Name)
		if tr.Alias != "" {
			key = strings.ToLower(tr.Alias)
		}
		scope = append(scope, scopeEntry{key: key, table: t})
	}
	full := scopes{local: scope, outer: outer}

	for i := range s.From.Joins {
		if err := d.bindColumn(&s.From.Joins[i].Left, full, false); err != nil {
			return err
		}
		if err := d.bindColumn(&s.From.Joins[i].Right, full, false); err != nil {
			return err
		}
	}
	for _, it := range s.Items {
		if err := d.bindValueExpr(it.Expr, full); err != nil {
			return err
		}
	}
	if err := d.bindCond(s.Where, full); err != nil {
		return err
	}
	for _, g := range s.GroupBy {
		if err := d.bindColumn(g, full, false); err != nil {
			return err
		}
	}
	if err := d.bindCond(s.Having, full); err != nil {
		return err
	}
	for _, o := range s.OrderBy {
		if err := d.bindValueExpr(o.Expr, full); err != nil {
			return err
		}
	}
	return nil
}

func (d *Database) bindCond(e sqlast.Expr, scope scopes) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlast.Binary:
		if x.Op == "AND" || x.Op == "OR" {
			if err := d.bindCond(x.L, scope); err != nil {
				return err
			}
			return d.bindCond(x.R, scope)
		}
		if err := d.bindValueExpr(x.L, scope); err != nil {
			return err
		}
		return d.bindValueExpr(x.R, scope)
	case *sqlast.Not:
		return d.bindCond(x.X, scope)
	case *sqlast.Between:
		if err := d.bindValueExpr(x.X, scope); err != nil {
			return err
		}
		if err := d.bindValueExpr(x.Lo, scope); err != nil {
			return err
		}
		return d.bindValueExpr(x.Hi, scope)
	case *sqlast.In:
		if err := d.bindValueExpr(x.X, scope); err != nil {
			return err
		}
		return d.bindQuery(x.Sub, scope.flatten())
	case *sqlast.Exists:
		return d.bindQuery(x.Sub, scope.flatten())
	default:
		return d.bindValueExpr(e, scope)
	}
}

func (d *Database) bindValueExpr(e sqlast.Expr, scope scopes) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *sqlast.ColumnRef:
		return d.bindColumn(x, scope, true)
	case *sqlast.Agg:
		if x.Arg == nil {
			return fmt.Errorf("schema: aggregate %s without argument", x.Func)
		}
		return d.bindColumn(x.Arg, scope, true)
	case *sqlast.Lit:
		return nil
	case *sqlast.Subquery:
		return d.bindQuery(x.Q, scope.flatten())
	default:
		return fmt.Errorf("schema: unexpected expression %T in value position", e)
	}
}

// scopes separates the current block's FROM entries from the enclosing
// blocks' entries: the local tier shadows the outer one, so an
// unqualified column resolves to an outer table only when no local table
// provides it.
type scopes struct {
	local []scopeEntry
	outer []scopeEntry
}

func (sc scopes) flatten() []scopeEntry {
	return append(append([]scopeEntry(nil), sc.local...), sc.outer...)
}

// bindColumn resolves one column reference. allowStar permits asterisks.
func (d *Database) bindColumn(c *sqlast.ColumnRef, scope scopes, allowStar bool) error {
	err := d.bindColumnIn(c, scope.local, allowStar)
	if err != nil && len(scope.outer) > 0 && !strings.Contains(err.Error(), "ambiguous") {
		if outerErr := d.bindColumnIn(c, scope.outer, allowStar); outerErr == nil {
			return nil
		}
	}
	return err
}

func (d *Database) bindColumnIn(c *sqlast.ColumnRef, scope []scopeEntry, allowStar bool) error {
	if c.IsStar() {
		if !allowStar {
			return fmt.Errorf("schema: '*' not allowed here")
		}
		if c.Table != "" {
			if findScope(scope, c.Table) == nil {
				return fmt.Errorf("schema: unknown table %q for '*'", c.Table)
			}
		}
		return nil
	}
	if c.Table != "" {
		entry := findScope(scope, c.Table)
		if entry == nil {
			return fmt.Errorf("schema: reference %s.%s: table not in scope", c.Table, c.Column)
		}
		if entry.table != nil {
			if entry.table.Column(c.Column) == nil {
				return fmt.Errorf("schema: table %s has no column %q", entry.table.Name, c.Column)
			}
			return nil
		}
		for _, col := range entry.cols {
			if strings.EqualFold(col, c.Column) {
				return nil
			}
		}
		return fmt.Errorf("schema: derived table %s has no column %q", c.Table, c.Column)
	}
	// Unqualified: find the unique providing table in scope.
	var found *scopeEntry
	for i := range scope {
		e := &scope[i]
		ok := false
		if e.table != nil {
			ok = e.table.Column(c.Column) != nil
		} else {
			for _, col := range e.cols {
				if strings.EqualFold(col, c.Column) {
					ok = true
					break
				}
			}
		}
		if !ok {
			continue
		}
		if found != nil {
			// Ambiguous across scope entries: only an error if they are
			// distinct tables; self-joins share the same table.
			if found.table == nil || e.table == nil || found.table != e.table {
				return fmt.Errorf("schema: column %q is ambiguous", c.Column)
			}
		}
		if found == nil {
			found = e
		}
	}
	if found == nil {
		return fmt.Errorf("schema: column %q not found in scope", c.Column)
	}
	if found.table != nil && found.key == strings.ToLower(found.table.Name) {
		c.Table = found.table.Name
	} else {
		c.Table = found.key
	}
	return nil
}

func findScope(scope []scopeEntry, name string) *scopeEntry {
	key := strings.ToLower(name)
	for i := range scope {
		if scope[i].key == key {
			return &scope[i]
		}
		if scope[i].table != nil && strings.EqualFold(scope[i].table.Name, name) {
			return &scope[i]
		}
	}
	return nil
}

// ResolveColumn returns the table and column for a (possibly aliased)
// reference within a SELECT block's FROM scope; nil when unresolved.
func (d *Database) ResolveColumn(s *sqlast.Select, c *sqlast.ColumnRef) (*Table, *Column) {
	for i := range s.From.Tables {
		tr := &s.From.Tables[i]
		if tr.Sub != nil {
			continue
		}
		t := d.Table(tr.Name)
		if t == nil {
			continue
		}
		if c.Table != "" &&
			!strings.EqualFold(c.Table, tr.Name) &&
			!strings.EqualFold(c.Table, tr.Alias) {
			continue
		}
		if col := t.Column(c.Column); col != nil {
			return t, col
		}
	}
	return nil, nil
}

// JoinEdges extracts the equi-join edges of a SELECT block with aliases
// resolved to underlying table names.
func JoinEdges(d *Database, s *sqlast.Select) []JoinEdge {
	alias := map[string]string{}
	for _, tr := range s.From.Tables {
		if tr.Sub != nil {
			continue
		}
		if tr.Alias != "" {
			alias[strings.ToLower(tr.Alias)] = tr.Name
		}
		alias[strings.ToLower(tr.Name)] = tr.Name
	}
	resolve := func(name string) string {
		if t, ok := alias[strings.ToLower(name)]; ok {
			return t
		}
		return name
	}
	var out []JoinEdge
	for _, j := range s.From.Joins {
		out = append(out, JoinEdge{
			LeftTable: resolve(j.Left.Table), LeftColumn: j.Left.Column,
			RightTable: resolve(j.Right.Table), RightColumn: j.Right.Column,
		})
	}
	return out
}
