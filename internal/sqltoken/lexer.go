package sqltoken

import (
	"fmt"
	"unicode"
)

// Lexer scans a SQL string into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Lex tokenizes the whole input, returning the token stream terminated by
// an EOF token. It returns an error on any character that cannot start a
// token or on an unterminated string literal. The token slice is its
// one allocation, sized from the input length.
func Lex(src string) ([]Token, error) {
	l := NewLexer(src)
	toks := make([]Token, 0, len(src)/bytesPerToken+2)
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// Next scans and returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		word := l.scanWhile(isIdentPart)
		if kw, ok := keyword(word); ok {
			return Token{Kind: Keyword, Text: kw, Pos: start}, nil
		}
		return Token{Kind: Ident, Text: word, Pos: start}, nil
	case c >= '0' && c <= '9':
		num := l.scanWhile(func(b byte) bool {
			return b >= '0' && b <= '9' || b == '.'
		})
		return Token{Kind: Number, Text: num, Pos: start}, nil
	case c == '\'' || c == '"':
		return l.scanString(c)
	default:
		return l.scanSymbol()
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *Lexer) scanWhile(pred func(byte) bool) string {
	start := l.pos
	for l.pos < len(l.src) && pred(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *Lexer) scanString(quote byte) (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) && l.src[l.pos] != quote {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return Token{}, fmt.Errorf("sqltoken: unterminated string literal at offset %d", start)
	}
	text := l.src[start+1 : l.pos]
	l.pos++ // closing quote
	return Token{Kind: String, Text: text, Pos: start}, nil
}

func (l *Lexer) scanSymbol() (Token, error) {
	start := l.pos
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=":
		l.pos += 2
		if two == "<>" {
			two = "!="
		}
		return Token{Kind: Symbol, Text: two, Pos: start}, nil
	}
	switch c {
	case '(', ')', ',', '.', '*', '=', '<', '>', ';', '+', '-', '/':
		l.pos++
		return Token{Kind: Symbol, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqltoken: unexpected character %q at offset %d", c, start)
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// keyword returns the keyword's canonical upper-case text when word is
// a keyword in any letter case. Identifier bytes are ASCII (see
// isIdentPart), so folding a byte at a time equals strings.ToUpper; the
// fold stays in a stack buffer, and a word longer than every keyword
// is not folded at all.
func keyword(word string) (string, bool) {
	var buf [maxKeyword]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}
