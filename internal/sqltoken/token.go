// Package sqltoken implements a lexical scanner for the SQL subset used
// throughout the GAR system. The subset follows the SPIDER benchmark
// grammar: SELECT/FROM/WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, explicit
// JOIN ... ON join paths, the set operators UNION/INTERSECT/EXCEPT, the
// aggregates COUNT/SUM/AVG/MIN/MAX, and nested subqueries.
package sqltoken

import (
	"fmt"
	"strings"
)

// Kind classifies a lexical token.
type Kind int

// Token kinds. Keywords are folded into the single Keyword kind; the
// parser dispatches on the upper-cased text instead of on distinct kinds,
// which keeps the scanner small and the keyword set easy to extend.
const (
	// EOF marks the end of the input.
	EOF Kind = iota
	// Ident is an unquoted identifier such as a table or column name.
	Ident
	// Number is an integer or floating point literal.
	Number
	// String is a single- or double-quoted string literal.
	String
	// Keyword is a reserved SQL word (SELECT, FROM, ...).
	Keyword
	// Symbol is an operator or punctuation: ( ) , . * = != <> < <= > >= ;
	Symbol
	// Placeholder is the literal-value placeholder token used after value
	// masking ("value" in SPIDER normalization, rendered as 1 terminal).
	Placeholder
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Number:
		return "Number"
	case String:
		return "String"
	case Keyword:
		return "Keyword"
	case Symbol:
		return "Symbol"
	case Placeholder:
		return "Placeholder"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	// Text is the token text. Keywords are upper-cased; identifiers keep
	// their original case; string literals exclude the surrounding quotes.
	Text string
	// Pos is the byte offset of the token start in the input.
	Pos int
}

// String renders the token for error messages.
func (t Token) String() string {
	if t.Kind == EOF {
		return "end of input"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}

// keywords maps each reserved word of the supported SQL subset to
// itself, so a lookup by folded bytes yields the canonical string.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, w := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT ASC DESC
		JOIN ON AS AND OR NOT IN LIKE BETWEEN EXISTS UNION INTERSECT EXCEPT DISTINCT
		COUNT SUM AVG MIN MAX ALL IS NULL INNER LEFT OUTER`) {
		m[w] = w
	}
	return m
}()

// maxKeyword is the length of the longest keyword (INTERSECT).
const maxKeyword = 9

// bytesPerToken is the input bytes Lex allots to a token when it sizes
// its token slice; printed pool queries average more per token.
const bytesPerToken = 3

// IsKeyword reports whether the upper-cased word is reserved in the
// supported SQL subset.
func IsKeyword(upper string) bool {
	_, ok := keywords[upper]
	return ok
}
