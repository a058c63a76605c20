package sql

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TokenType classifies lexer output.
type TokenType int

// Token types. Keywords are recognized by the parser from IDENT tokens via
// the keyword table, so that non-reserved words stay usable as identifiers.
const (
	EOF TokenType = iota
	IDENT
	QIDENT // "quoted identifier"
	NUMBER
	STRING // 'string literal'
	// punctuation and operators
	LPAREN
	RPAREN
	COMMA
	SEMI
	STAR
	DOT
	PLUS
	MINUS
	SLASH
	PERCENT
	EQ
	NEQ
	LT
	LTE
	GT
	GTE
	CONCAT // ||
	QMARK  // ? (bind-parameter placeholder)
)

func (t TokenType) String() string {
	switch t {
	case EOF:
		return "end of input"
	case IDENT:
		return "identifier"
	case QIDENT:
		return "quoted identifier"
	case NUMBER:
		return "number"
	case STRING:
		return "string"
	case LPAREN:
		return "("
	case RPAREN:
		return ")"
	case COMMA:
		return ","
	case SEMI:
		return ";"
	case STAR:
		return "*"
	case DOT:
		return "."
	case PLUS:
		return "+"
	case MINUS:
		return "-"
	case SLASH:
		return "/"
	case PERCENT:
		return "%"
	case EQ:
		return "="
	case NEQ:
		return "<>"
	case LT:
		return "<"
	case LTE:
		return "<="
	case GT:
		return ">"
	case GTE:
		return ">="
	case CONCAT:
		return "||"
	case QMARK:
		return "?"
	}
	return fmt.Sprintf("token(%d)", int(t))
}

// Token is one lexical element. Off and End delimit the bytes it was read
// from, src[Off:End]; line and column are derived from Off only when an
// error is reported.
type Token struct {
	Type     TokenType
	Text     string // for IDENT folded lower, for STRING and QIDENT the unquoted value, else the source text
	Off, End int
}

// position renders byte offset off of src as the 1-based line and column
// that error messages carry; a column counts runes.
func position(src string, off int) string {
	line := 1 + strings.Count(src[:off], "\n")
	col := 1 + utf8.RuneCountInString(src[strings.LastIndexByte(src[:off], '\n')+1:off])
	return fmt.Sprintf("line %d col %d", line, col)
}
