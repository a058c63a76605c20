package sql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns SQL text into tokens. It handles single-quoted strings with ”
// escapes, double-quoted identifiers, line comments (--) and block comments
// (/* ... */, nested), and the SQL operator set used by the grammar.
type Lexer struct {
	src string
	pos int // byte offset of the next unread rune
}

// NewLexer returns a lexer over the input.
func NewLexer(input string) *Lexer {
	return &Lexer{src: input}
}

// Tokens lexes the whole input.
func Tokens(input string) ([]Token, error) {
	lx := NewLexer(input)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Type == EOF {
			return out, nil
		}
	}
}

// FirstKeyword returns the source text of a statement's first token,
// skipping whitespace, comments and the empty statements leading semicolons
// make, as the parser does: the leading keyword, "(" for a parenthesized
// query, "" for an empty statement or text the lexer rejects. It does not
// allocate, and the word keeps its case: compare it with KeywordIs.
func FirstKeyword(s string) string {
	l := Lexer{src: s}
	for {
		tt, off, err := l.scan()
		if err != nil {
			return ""
		}
		if tt != SEMI {
			return s[off:l.pos]
		}
	}
}

// KeywordIs reports whether word is one of the keywords kws, compared
// without regard to case.
func KeywordIs(word string, kws ...string) bool {
	for _, kw := range kws {
		if strings.EqualFold(word, kw) {
			return true
		}
	}
	return false
}

// peekAt returns the rune n runes ahead, or 0 past the end.
func (l *Lexer) peekAt(n int) rune {
	i := l.pos
	for ; n > 0 && i < len(l.src); n-- {
		_, w := utf8.DecodeRuneInString(l.src[i:])
		i += w
	}
	if i >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[i:])
	return r
}

func (l *Lexer) peek() rune { return l.peekAt(0) }

func (l *Lexer) advance() rune {
	r, w := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += w
	return r
}

func (l *Lexer) errAt(off int, format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", position(l.src, off), fmt.Sprintf(format, args...))
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		rest := l.src[l.pos:]
		switch {
		case unicode.IsSpace(l.peek()):
			l.advance()
		case strings.HasPrefix(rest, "--"):
			// Comment text, like quoted-literal text, may hold any byte,
			// NUL included: only a newline ends it.
			if i := strings.IndexByte(rest, '\n'); i >= 0 {
				l.pos += i
			} else {
				l.pos = len(l.src)
			}
		case strings.HasPrefix(rest, "/*"):
			start := l.pos
			l.pos += 2
			for depth := 1; depth > 0; {
				rest := l.src[l.pos:]
				switch {
				case rest == "":
					return l.errAt(start, "unterminated block comment")
				case strings.HasPrefix(rest, "/*"):
					l.pos += 2
					depth++
				case strings.HasPrefix(rest, "*/"):
					l.pos += 2
					depth--
				default:
					l.pos++
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c rune) bool {
	return c == '_' || unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	return c == '_' || c == '$' || unicode.IsLetter(c) || unicode.IsDigit(c)
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	tt, off, err := l.scan()
	if err != nil {
		return Token{}, err
	}
	text := l.src[off:l.pos]
	switch tt {
	case IDENT:
		text = strings.ToLower(text)
	case STRING:
		text = unquote(text, "''")
	case QIDENT:
		text = unquote(text, `""`)
	}
	return Token{Type: tt, Text: text, Off: off, End: l.pos}, nil
}

// unquote returns the value of a quoted token: the text between the quotes
// with each doubled quote made single and each invalid UTF-8 byte read as
// U+FFFD.
func unquote(raw, doubled string) string {
	s := strings.ReplaceAll(raw[1:len(raw)-1], doubled, doubled[:1])
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	return s
}

// scan reads the next token, returning its type and start offset; it ends
// at l.pos. Only the error path allocates.
func (l *Lexer) scan() (TokenType, int, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return EOF, 0, err
	}
	off := l.pos
	if off >= len(l.src) {
		// True end of input only: a literal NUL in the source is not EOF —
		// treating it as one would silently truncate the statement — so it
		// falls through to the unexpected-character error below.
		return EOF, off, nil
	}
	c := l.advance()
	switch {
	case isIdentStart(c):
		for isIdentPart(l.peek()) {
			l.advance()
		}
		return IDENT, off, nil
	case unicode.IsDigit(c) || (c == '.' && unicode.IsDigit(l.peek())):
		seenDot, seenExp := c == '.', false
		for {
			c := l.peek()
			switch {
			case unicode.IsDigit(c):
				l.advance()
			case c == '.' && !seenDot && !seenExp:
				seenDot = true
				l.advance()
			case (c == 'e' || c == 'E') && !seenExp && unicode.IsDigit(runeOrZero(l.peekAt(1), l.peekAt(2))):
				seenExp = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
			default:
				return NUMBER, off, nil
			}
		}
	case c == '\'' || c == '"':
		for {
			if l.pos >= len(l.src) {
				if c == '"' {
					return EOF, off, l.errAt(off, "unterminated quoted identifier")
				}
				return EOF, off, l.errAt(off, "unterminated string literal")
			}
			if l.advance() != c {
				continue
			}
			if l.peek() == c { // a doubled quote escapes itself
				l.advance()
				continue
			}
			if c == '\'' {
				return STRING, off, nil
			}
			if l.pos-off == 2 {
				return EOF, off, l.errAt(off, "empty quoted identifier")
			}
			return QIDENT, off, nil
		}
	}
	switch c {
	case '(':
		return LPAREN, off, nil
	case ')':
		return RPAREN, off, nil
	case ',':
		return COMMA, off, nil
	case ';':
		return SEMI, off, nil
	case '*':
		return STAR, off, nil
	case '.':
		return DOT, off, nil
	case '+':
		return PLUS, off, nil
	case '-':
		return MINUS, off, nil
	case '/':
		return SLASH, off, nil
	case '%':
		return PERCENT, off, nil
	case '=':
		return EQ, off, nil
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			return LTE, off, nil
		case '>':
			l.advance()
			return NEQ, off, nil
		}
		return LT, off, nil
	case '>':
		if l.peek() == '=' {
			l.advance()
			return GTE, off, nil
		}
		return GT, off, nil
	case '!':
		if l.peek() == '=' {
			l.advance()
			return NEQ, off, nil
		}
		return EOF, off, l.errAt(off, "unexpected character '!'")
	case '|':
		if l.peek() == '|' {
			l.advance()
			return CONCAT, off, nil
		}
		return EOF, off, l.errAt(off, "unexpected character '|'")
	case '?':
		return QMARK, off, nil
	}
	return EOF, off, l.errAt(off, "unexpected character %q", string(c))
}

// runeOrZero helps lex exponents: returns the first rune unless it is a sign,
// in which case the second (so 1e+5 lexes as a number but 1e+x does not).
func runeOrZero(a, b rune) rune {
	if a == '+' || a == '-' {
		return b
	}
	return a
}
