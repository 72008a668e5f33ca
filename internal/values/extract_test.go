package values

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema/schematest"
	"repro/internal/text"
)

// oracleExtract is the cell-value scan Extract replaced, kept verbatim
// as the equivalence reference: every distinct cell value is probed
// against the question, and equal-length matches come out in map
// order.
func oracleExtract(l *Linker, nl string) []NLValue {
	var out []NLValue
	seen := map[string]bool{}
	add := func(v NLValue) {
		key := strings.ToLower(v.Text)
		if key == "" || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, v)
	}
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
	lower := " " + strings.ToLower(nl) + " "
	var matches []string
	for val := range l.cellCols {
		if strings.Contains(lower, " "+val+" ") || strings.Contains(lower, " "+val+"?") ||
			strings.Contains(lower, " "+val+".") || strings.Contains(lower, " "+val+",") {
			matches = append(matches, val)
		}
	}
	for {
		best := ""
		for _, m := range matches {
			if len(m) > len(best) && !seen[m] {
				covered := false
				for s := range seen {
					if strings.Contains(s, m) {
						covered = true
						break
					}
				}
				if !covered {
					best = m
				}
			}
		}
		if best == "" {
			break
		}
		add(NLValue{Text: best, Columns: l.columnsOf(best)})
	}
	for _, tok := range text.Tokenize(nl) {
		if _, err := strconv.ParseFloat(tok, 64); err == nil {
			add(NLValue{Text: tok, IsNum: true})
		}
	}
	return out
}

// extractCells are the cell values of the randomized linker:
// punctuation inside values, prefixes, overlaps, repeats across
// columns, non-ASCII text and numeric-looking strings.
var extractCells = []string{
	"new", "york", "new york", "new york city", "york city", "city",
	"red bull", "bull", "o'brien", "st. louis", "louis", "a,b", "what?",
	"Madrid", "Austin", "São Paulo", "ÉCOLE", "quartz", "harbor", "lead",
	"harbor lead", "30", "4.5", "x", "x y", "y x",
}

var extractFiller = []string{
	"which", "employees", "live", "in", "the", "of", "and", "or", "named",
	"?", ".", ",", "'", `"`, "30", "45", "4.5", "-", "at", "quartz-harbor",
}

func randomLinker(rng *rand.Rand) *Linker {
	db := schematest.Employee()
	in := engine.NewInstance(db)
	n, s := engine.Num, engine.Str
	pick := func() string { return extractCells[rng.Intn(len(extractCells))] }
	for i := 0; i < 6; i++ {
		in.MustInsert("employee", n(float64(i)), s(pick()), n(30), s(pick()))
		in.MustInsert("shop", n(float64(i)), s(pick()), s(pick()), s(pick()), n(7), s(pick()))
	}
	return NewLinker(db, in)
}

func randomQuestion(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 1+rng.Intn(12); i < n; i++ {
		var w string
		if rng.Intn(2) == 0 {
			w = extractCells[rng.Intn(len(extractCells))]
		} else {
			w = extractFiller[rng.Intn(len(extractFiller))]
		}
		if rng.Intn(3) == 0 {
			w = strings.ToUpper(w)
		}
		b.WriteString(w)
		switch rng.Intn(6) {
		case 0: // glue the next word on
		case 1:
			b.WriteString(", ")
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// canonTies sorts every run of consecutive values that agree in kind
// and length by text: the one freedom the oracle's map order had.
func canonTies(vals []NLValue) []NLValue {
	out := slices.Clone(vals)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].IsNum == out[i].IsNum && len(out[j].Text) == len(out[i].Text) {
			j++
		}
		slices.SortFunc(out[i:j], func(a, b NLValue) int { return strings.Compare(a.Text, b.Text) })
		i = j
	}
	return out
}

// firstSpan is the offset of the first occurrence of v in the padded
// question that starts after a space and ends before one of " ?.,".
func firstSpan(lower, v string) int {
	for off := 0; ; {
		i := strings.Index(lower[off:], " "+v)
		if i < 0 {
			return -1
		}
		end := off + i + 1 + len(v)
		if end < len(lower) && strings.IndexByte(" ?.,", lower[end]) >= 0 {
			return off + i
		}
		off += i + 1
	}
}

// TestExtractMatchesOracle checks Extract against the full cell-value
// scan on random questions: the same values with the same column
// hints, differing at most in the order of equal-length values, which
// Extract must keep in order of appearance.
func TestExtractMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 40; round++ {
		l := randomLinker(rng)
		for q := 0; q < 250; q++ {
			nl := randomQuestion(rng)
			got, want := l.Extract(nl), oracleExtract(l, nl)
			if !reflect.DeepEqual(canonTies(got), canonTies(want)) {
				t.Fatalf("Extract(%q)\n got %+v\nwant %+v", nl, got, want)
			}
			if again := l.Extract(nl); !reflect.DeepEqual(got, again) {
				t.Fatalf("Extract(%q) not deterministic: %+v vs %+v", nl, got, again)
			}
			lower := " " + strings.ToLower(nl) + " "
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if a.IsNum || b.IsNum || len(a.Text) != len(b.Text) || l.cellCols[a.Text] == nil || l.cellCols[b.Text] == nil {
					continue
				}
				if pa, pb := firstSpan(lower, a.Text), firstSpan(lower, b.Text); pa > pb {
					t.Errorf("Extract(%q): %q (at %d) before %q (at %d)", nl, a.Text, pa, b.Text, pb)
				}
			}
		}
	}
}

// TestExtractTieOrder pins the tie rule on the case that used to flip
// between calls: two equally long cell values fill in question order.
func TestExtractTieOrder(t *testing.T) {
	db := schematest.Employee()
	in := engine.NewInstance(db)
	in.MustInsert("employee", engine.Num(1), engine.Str("harbor"), engine.Num(30), engine.Str("quartz"))
	l := NewLinker(db, in)
	for _, c := range []struct{ nl, first, second string }{
		{"employees named quartz in harbor", "quartz", "harbor"},
		{"employees named harbor in quartz?", "harbor", "quartz"},
	} {
		vals := l.Extract(c.nl)
		if len(vals) != 2 || vals[0].Text != c.first || vals[1].Text != c.second {
			t.Errorf("Extract(%q) = %+v, want %s then %s", c.nl, vals, c.first, c.second)
		}
	}
}
