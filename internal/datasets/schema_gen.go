package datasets

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/schema"
)

// DBBundle is one generated database: schema, content, and the semantic
// side-information the NL generator uses (synonyms per table and column,
// independent of the schema identifiers — crucial for QBEN, where the
// identifiers are opaque but the users' language is not).
type DBBundle struct {
	Schema  *schema.Database
	Content *engine.Instance
	// Syn maps "table" and "table.column" (lower-case schema
	// identifiers) to NL synonym lists; the first entry is the primary
	// noun.
	Syn map[string][]string
	// BridgeVerb maps a bridge table to its relation verb phrase
	// ("enrolled in"), used by NL generation for join questions.
	BridgeVerb map[string]string
	// colKinds remembers each column's value kind for content
	// generation, keyed "table.column" (lower-case).
	colKinds map[string]vkind
}

// Noun returns the primary NL noun for a table.
func (b *DBBundle) Noun(table string) string {
	if s, ok := b.Syn[strings.ToLower(table)]; ok && len(s) > 0 {
		return s[0]
	}
	return strings.ToLower(table)
}

// synOf picks a random synonym (including the primary noun).
func (b *DBBundle) synOf(rng *rand.Rand, key string) string {
	s := b.Syn[strings.ToLower(key)]
	if len(s) == 0 {
		return key
	}
	return s[rng.Intn(len(s))]
}

// dbPattern is a database composition shape.
type dbPattern int

const (
	patSingle dbPattern = iota // one entity table
	patChild                   // parent + child with FK
	patBridge                  // two entities + many-to-many bridge
	patTriple                  // bridge plus an extra child entity
)

// buildDatabase composes one database from the archetype pool.
// opaque=true produces a QBEN-style schema: identifiers carry no
// semantics, annotations mirror the opaque identifiers, and only the
// join annotations (and the Syn map used by NL generation) retain the
// underlying meaning.
func buildDatabase(name string, rng *rand.Rand, opaque bool) *DBBundle {
	pattern := patBridge
	switch r := rng.Float64(); {
	case r < 0.15:
		pattern = patSingle
	case r < 0.50:
		pattern = patChild
	case r < 0.85:
		pattern = patBridge
	default:
		pattern = patTriple
	}

	// Pick distinct archetypes.
	perm := rng.Perm(len(archetypes))
	a1 := archetypes[perm[0]]
	a2 := archetypes[perm[1]]
	a3 := archetypes[perm[2]]

	b := &DBBundle{
		Syn:        map[string][]string{},
		BridgeVerb: map[string]string{},
	}
	db := &schema.Database{Name: name}
	ob := newObfuscator(rng, opaque)

	t1 := b.entityTable(db, ob, a1, rng)
	switch pattern {
	case patSingle:
		// done
	case patChild:
		t2 := b.entityTable(db, ob, a2, rng)
		b.addFK(db, ob, t2, t1, a2, a1, rng)
	case patBridge:
		t2 := b.entityTable(db, ob, a2, rng)
		b.bridgeTable(db, ob, t1, t2, a1, a2, rng)
	case patTriple:
		t2 := b.entityTable(db, ob, a2, rng)
		b.bridgeTable(db, ob, t1, t2, a1, a2, rng)
		t3 := b.entityTable(db, ob, a3, rng)
		b.addFK(db, ob, t3, t1, a3, a1, rng)
	}

	b.Schema = db
	b.populate(rng)
	return b
}

// obfuscator renames identifiers for QBEN-style databases.
type obfuscator struct {
	opaque  bool
	rng     *rand.Rand
	tcount  int
	ccounts map[string]int
}

func newObfuscator(rng *rand.Rand, opaque bool) *obfuscator {
	return &obfuscator{opaque: opaque, rng: rng, ccounts: map[string]int{}}
}

func (o *obfuscator) table(base string) string {
	if !o.opaque {
		return base
	}
	o.tcount++
	return fmt.Sprintf("t_%c%d", 'a'+(o.tcount-1)%26, o.tcount)
}

// column obfuscates only key and foreign-key columns: QBEN's design
// (paper §V-E) hides the *join semantics* — table names and key columns
// carry no meaning — while ordinary data columns stay readable
// (mechanic.FName, teams.Name in the paper's example).
func (o *obfuscator) column(table, base string, isKey bool) string {
	if !o.opaque || !isKey {
		return base
	}
	o.ccounts[table]++
	if o.ccounts[table] == 1 {
		return "uid"
	}
	return fmt.Sprintf("uid%d", o.ccounts[table])
}

// entityTable adds one entity archetype as a table: an id key plus a
// random subset of its attributes.
func (b *DBBundle) entityTable(db *schema.Database, ob *obfuscator, a archetype, rng *rand.Rand) *schema.Table {
	tname := ob.table(a.name)
	idName := ob.column(tname, a.name+"_id", true)
	t := &schema.Table{
		Name:       tname,
		PrimaryKey: []string{idName},
		Columns: []*schema.Column{
			{Name: idName, Type: schema.Number, Annotation: annotationFor(ob, a.name+" id", idName)},
		},
	}
	// Keep 3-4 attributes in archetype order for determinism.
	keep := 3 + rng.Intn(2)
	if keep > len(a.attrs) {
		keep = len(a.attrs)
	}
	for _, at := range a.attrs[:keep] {
		cname := ob.column(tname, at.name, false)
		nl := at.nl
		if nl == "" {
			nl = strings.ReplaceAll(at.name, "_", " ")
		}
		// Data columns keep their semantic annotation even in opaque
		// mode: QBEN hides join semantics, not attribute names.
		t.Columns = append(t.Columns, &schema.Column{
			Name: cname, Type: at.typ, Annotation: nl,
		})
		b.Syn[strings.ToLower(tname)+"."+strings.ToLower(cname)] =
			append([]string{nl}, at.synonyms...)
		b.kinds(tname, cname, at.kind, at.typ)
	}
	db.Tables = append(db.Tables, t)
	b.Syn[strings.ToLower(tname)] = append([]string{a.name}, a.synonyms...)
	b.Syn[strings.ToLower(tname)+"."+strings.ToLower(idName)] = []string{a.name + " id"}
	b.kinds(tname, idName, vSmallInt, schema.Number)
	return t
}

// annotationFor returns the schema annotation: the semantic NL name for
// normal databases, the identifier itself for opaque ones (QBEN's whole
// point is that the schema carries no usable text).
func annotationFor(ob *obfuscator, nl, ident string) string {
	if ob.opaque {
		return strings.ReplaceAll(ident, "_", " ")
	}
	return nl
}

// addFK links child → parent with a foreign key column on the child and
// records the join annotation.
func (b *DBBundle) addFK(db *schema.Database, ob *obfuscator, child, parent *schema.Table, ca, pa archetype, rng *rand.Rand) {
	fkName := ob.column(child.Name, pa.name+"_id", true)
	child.Columns = append(child.Columns, &schema.Column{
		Name: fkName, Type: schema.Number,
		Annotation: annotationFor(ob, pa.name+" id", fkName),
	})
	b.Syn[strings.ToLower(child.Name)+"."+strings.ToLower(fkName)] = []string{pa.name + " id"}
	b.kinds(child.Name, fkName, vSmallInt, schema.Number)
	db.ForeignKeys = append(db.ForeignKeys, schema.ForeignKey{
		FromTable: child.Name, FromColumn: fkName,
		ToTable: parent.Name, ToColumn: parent.PrimaryKey[0],
	})
	verb := bridgeVerbs[rng.Intn(len(bridgeVerbs))]
	db.JoinAnnotations = append(db.JoinAnnotations, &schema.JoinAnnotation{
		Tables: []string{child.Name, parent.Name},
		Conditions: []schema.JoinEdge{{
			LeftTable: child.Name, LeftColumn: fkName,
			RightTable: parent.Name, RightColumn: parent.PrimaryKey[0],
		}},
		Description: fmt.Sprintf("the %s %s the %s", plural(ca.name), verb, plural(pa.name)),
		TableKeys:   ca.name,
	})
	b.BridgeVerb[strings.ToLower(child.Name)] = verb
}

// bridgeTable adds a many-to-many bridge between two entities with a
// compound primary key, plus join annotations through the bridge.
func (b *DBBundle) bridgeTable(db *schema.Database, ob *obfuscator, t1, t2 *schema.Table, a1, a2 archetype, rng *rand.Rand) *schema.Table {
	base := a1.name + "_" + a2.name
	tname := ob.table(base)
	if ob.opaque {
		tname = "rel_" + tname
	}
	c1 := ob.column(tname, a1.name+"_id", true)
	c2 := ob.column(tname, a2.name+"_id", true)
	extra := ob.column(tname, "since_year", false)
	t := &schema.Table{
		Name:       tname,
		PrimaryKey: []string{c1, c2},
		Columns: []*schema.Column{
			{Name: c1, Type: schema.Number, Annotation: annotationFor(ob, a1.name+" id", c1)},
			{Name: c2, Type: schema.Number, Annotation: annotationFor(ob, a2.name+" id", c2)},
			{Name: extra, Type: schema.Number, Annotation: "since year"},
		},
	}
	db.Tables = append(db.Tables, t)
	verb := bridgeVerbs[rng.Intn(len(bridgeVerbs))]
	b.Syn[strings.ToLower(tname)] = []string{a1.name + " " + a2.name + " record"}
	b.Syn[strings.ToLower(tname)+"."+strings.ToLower(c1)] = []string{a1.name + " id"}
	b.Syn[strings.ToLower(tname)+"."+strings.ToLower(c2)] = []string{a2.name + " id"}
	b.Syn[strings.ToLower(tname)+"."+strings.ToLower(extra)] = []string{"since year", "start year"}
	b.kinds(tname, c1, vSmallInt, schema.Number)
	b.kinds(tname, c2, vSmallInt, schema.Number)
	b.kinds(tname, extra, vYear, schema.Number)
	b.BridgeVerb[strings.ToLower(tname)] = verb

	db.ForeignKeys = append(db.ForeignKeys,
		schema.ForeignKey{FromTable: tname, FromColumn: c1, ToTable: t1.Name, ToColumn: t1.PrimaryKey[0]},
		schema.ForeignKey{FromTable: tname, FromColumn: c2, ToTable: t2.Name, ToColumn: t2.PrimaryKey[0]},
	)
	db.JoinAnnotations = append(db.JoinAnnotations,
		&schema.JoinAnnotation{
			Tables: []string{t1.Name, tname},
			Conditions: []schema.JoinEdge{{
				LeftTable: tname, LeftColumn: c1,
				RightTable: t1.Name, RightColumn: t1.PrimaryKey[0],
			}},
			Description: fmt.Sprintf("the %s %s records of the %s", a1.name, verb, plural(a1.name)),
			TableKeys:   a1.name + " " + a2.name + " record",
		},
		&schema.JoinAnnotation{
			Tables: []string{t1.Name, tname, t2.Name},
			Conditions: []schema.JoinEdge{
				{LeftTable: tname, LeftColumn: c1, RightTable: t1.Name, RightColumn: t1.PrimaryKey[0]},
				{LeftTable: tname, LeftColumn: c2, RightTable: t2.Name, RightColumn: t2.PrimaryKey[0]},
			},
			Description: fmt.Sprintf("the %s %s the %s", plural(a1.name), verb, plural(a2.name)),
			TableKeys:   a1.name + " " + a2.name + " pair",
		},
	)
	return t
}

// kinds remembers each column's value kind for the content generator.
func (b *DBBundle) kinds(table, column string, k vkind, typ schema.Type) {
	if b.colKinds == nil {
		b.colKinds = map[string]vkind{}
	}
	b.colKinds[strings.ToLower(table)+"."+strings.ToLower(column)] = k
	_ = typ
}

// populate fills every table with deterministic content rows.
//
//garlint:allow mustonly -- generator: rows are built to match the schema
func (b *DBBundle) populate(rng *rand.Rand) {
	in := engine.NewInstance(b.Schema)
	rowCounts := map[string]int{}
	for _, t := range b.Schema.Tables {
		// Bridges reference entity ids; entities first (they appear
		// first in Tables by construction).
		n := 8 + rng.Intn(10)
		rowCounts[strings.ToLower(t.Name)] = n
		for r := 0; r < n; r++ {
			row := make([]engine.Value, 0, len(t.Columns))
			for _, c := range t.Columns {
				row = append(row, b.cellValue(rng, t, c, r, rowCounts))
			}
			in.MustInsert(t.Name, row...)
		}
	}
	b.Content = in
}

func (b *DBBundle) cellValue(rng *rand.Rand, t *schema.Table, c *schema.Column, row int, rowCounts map[string]int) engine.Value {
	key := strings.ToLower(t.Name) + "." + strings.ToLower(c.Name)
	// Primary key ids are sequential; foreign keys point at existing ids.
	if len(t.PrimaryKey) == 1 && strings.EqualFold(t.PrimaryKey[0], c.Name) {
		return engine.Num(float64(row + 1))
	}
	for _, fk := range b.Schema.ForeignKeys {
		if strings.EqualFold(fk.FromTable, t.Name) && strings.EqualFold(fk.FromColumn, c.Name) {
			max := rowCounts[strings.ToLower(fk.ToTable)]
			if max == 0 {
				max = 8
			}
			return engine.Num(float64(1 + rng.Intn(max)))
		}
	}
	switch b.colKinds[key] {
	case vPersonName:
		return engine.Str(personNames[rng.Intn(len(personNames))])
	case vCityName:
		return engine.Str(cityNames[rng.Intn(len(cityNames))])
	case vCountryName:
		return engine.Str(countryNames[rng.Intn(len(countryNames))])
	case vWord:
		return engine.Str(words[rng.Intn(len(words))])
	case vYear:
		return engine.Num(float64(1990 + rng.Intn(31)))
	case vBigInt:
		return engine.Num(float64(100 + rng.Intn(9900)))
	case vMoney:
		return engine.Num(float64((10 + rng.Intn(890)) * 100))
	case vCode:
		return engine.Str(fmt.Sprintf("%c%c%d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(100)))
	default: // vSmallInt
		return engine.Num(float64(1 + rng.Intn(99)))
	}
}

// plural naively pluralizes an archetype noun.
func plural(s string) string {
	if strings.HasSuffix(s, "s") {
		return s
	}
	if strings.HasSuffix(s, "y") && len(s) > 1 && !strings.ContainsRune("aeiou", rune(s[len(s)-2])) {
		return s[:len(s)-1] + "ies"
	}
	return s + "s"
}
