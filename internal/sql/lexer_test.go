package sql

import (
	"testing"
	"unsafe"
)

func lex(t *testing.T, input string) []Token {
	t.Helper()
	toks, err := Tokens(input)
	if err != nil {
		t.Fatalf("Tokens(%q): %v", input, err)
	}
	return toks
}

func TestLexBasicSelect(t *testing.T) {
	toks := lex(t, "SELECT a, b FROM t WHERE a >= 10;")
	types := []TokenType{IDENT, IDENT, COMMA, IDENT, IDENT, IDENT, IDENT, IDENT, GTE, NUMBER, SEMI, EOF}
	if len(toks) != len(types) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(types), toks)
	}
	for i, tt := range types {
		if toks[i].Type != tt {
			t.Errorf("token %d = %v (%q), want %v", i, toks[i].Type, toks[i].Text, tt)
		}
	}
	if toks[0].Text != "select" {
		t.Errorf("identifiers must fold to lower case, got %q", toks[0].Text)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks := lex(t, `'it''s a test'`)
	if toks[0].Type != STRING || toks[0].Text != "it's a test" {
		t.Errorf("got %v %q", toks[0].Type, toks[0].Text)
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks := lex(t, `"Mixed Case" "with""quote"`)
	if toks[0].Type != QIDENT || toks[0].Text != "Mixed Case" {
		t.Errorf("got %v %q", toks[0].Type, toks[0].Text)
	}
	if toks[1].Text != `with"quote` {
		t.Errorf("got %q", toks[1].Text)
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"3.14":   "3.14",
		".5":     ".5",
		"1e6":    "1e6",
		"2.5e-3": "2.5e-3",
	}
	for in, want := range cases {
		toks := lex(t, in)
		if toks[0].Type != NUMBER || toks[0].Text != want {
			t.Errorf("lex(%q) = %v %q, want NUMBER %q", in, toks[0].Type, toks[0].Text, want)
		}
	}
}

func TestLexExponentNotGreedy(t *testing.T) {
	// 1e+x is NUMBER(1) IDENT(e) PLUS IDENT(x)? No: 'e' attaches to the
	// number only when followed by digits; here "1e" lexes as number 1 then
	// ident e... our lexer keeps 1 then ident "e", plus, ident x.
	toks := lex(t, "1e + x")
	if toks[0].Type != NUMBER || toks[0].Text != "1" {
		t.Fatalf("got %v %q", toks[0].Type, toks[0].Text)
	}
	if toks[1].Type != IDENT || toks[1].Text != "e" {
		t.Fatalf("got %v %q", toks[1].Type, toks[1].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks := lex(t, `SELECT -- line comment
		/* block /* nested */ comment */ 1`)
	if len(toks) != 3 { // select, 1, EOF
		t.Fatalf("comments must vanish, got %v", toks)
	}
}

func TestLexOperators(t *testing.T) {
	toks := lex(t, "= <> != < <= > >= || + - * / %")
	types := []TokenType{EQ, NEQ, NEQ, LT, LTE, GT, GTE, CONCAT, PLUS, MINUS, STAR, SLASH, PERCENT, EOF}
	for i, tt := range types {
		if toks[i].Type != tt {
			t.Errorf("token %d = %v, want %v", i, toks[i].Type, tt)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", `"unterminated`, `""`, "a ! b", "a | b", "/* unclosed"} {
		if _, err := Tokens(bad); err == nil {
			t.Errorf("Tokens(%q) should fail", bad)
		}
	}
}

func TestLexPositions(t *testing.T) {
	src := "a\n  bb 'it''s'"
	toks := lex(t, src)
	for i, want := range []string{"a", "bb", "'it''s'", ""} {
		if got := src[toks[i].Off:toks[i].End]; got != want {
			t.Errorf("token %d spans %q, want %q", i, got, want)
		}
	}
	if got := position(src, toks[1].Off); got != "line 2 col 3" {
		t.Errorf("position = %q, want line 2 col 3", got)
	}
	if n := unsafe.Sizeof(Token{}); n > 40 {
		t.Errorf("Token is %d bytes, want at most 40", n)
	}
}

// TestErrorMessages pins lexer and parser errors byte for byte: line and
// column are derived from the token's offset, and a column counts runes.
func TestErrorMessages(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"SELECT\n  a FROM", "line 2 col 9: expected identifier, found end of input"},
		{"SELECT a,\n\tb FROM t WHERE ü = 'x' AND\n  ! b", "line 3 col 3: unexpected character '!'"},
		{"über, 'ok'\n || x |", "line 2 col 7: unexpected character '|'"},
		{"SELECT 'a''b\n", "line 1 col 8: unterminated string literal"},
		{"SELECT \"x\" FROM \"\"", "line 1 col 17: empty quoted identifier"},
		{"SELECT 1 /* a /* b */", "line 1 col 10: unterminated block comment"},
		{"SELECT a FROM t\n  WHERE a = ü@", "line 2 col 14: unexpected character \"@\""},
		{"SELECT 1 2 3", "line 1 col 10: unexpected \"2\" after statement"},
		{"FOO BAR", "line 1 col 1: unsupported statement starting with \"foo\""},
		{"\n\n   SELECT a FROM t GROUP", "line 3 col 25: expected BY, found end of input"},
		{"SELECT \xff", "line 1 col 8: unexpected character \"\uFFFD\""},
		{"SELECT 'é\xff' e\x00", "line 1 col 14: unexpected character \"\\x00\""},
		{"SELECT \"a\"\"\n", "line 1 col 8: unterminated quoted identifier"},
	} {
		if _, err := Parse(c.in); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.in, err, c.want)
		}
	}
}

func TestFirstKeyword(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"SELECT 1", "SELECT"},
		{"  select provenance x FROM t", "select"},
		{"-- c\n  /* c2 */ Insert into t", "Insert"},
		{"/* a /* nested */ b */ delete FROM t", "delete"},
		{"; ;\nupdate t set v=1", "update"},
		{"(SELECT 1)", "("},
		{"select1 FROM t", "select1"},
		{"'x'", "'x'"},
		{"", ""},
		{";;", ""},
		{"/* unterminated", ""},
	} {
		if got := FirstKeyword(c.in); got != c.want {
			t.Errorf("FirstKeyword(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { FirstKeyword("/* c */ ; SELECT a FROM t") }); n != 0 {
		t.Errorf("FirstKeyword allocates %v times, want 0", n)
	}
}

func TestLexPlaceholders(t *testing.T) {
	for _, c := range []struct {
		query string
		want  int // number of QMARK tokens
	}{
		{`SELECT ?`, 1},
		{`SELECT ?, ?, ?`, 3},
		{`SELECT '?'`, 0},
		{`SELECT 'a?b', ?`, 1},
		{`SELECT 'it''s a ?', ?`, 1},                    // doubled-quote escape stays inside the literal
		{`SELECT "a?b", ?`, 1},                          // quoted identifier
		{`SELECT "it""s?", ?`, 1},                       // doubled double-quote
		{`SELECT 1 -- a ? comment`, 0},                  // line comment
		{"SELECT ? -- tail ?", 1},                       // line comment without trailing newline
		{"SELECT 1 -- c ?\n, ?", 1},                     // placeholder after the comment ends
		{`SELECT /* ? */ ?`, 1},                         // block comment
		{`SELECT /* a /* nested ? */ still ? */ ?`, 1},  // nested block comment
		{`SELECT '?' || ? || '?'`, 1},                   // literals on both sides
		{`INSERT INTO t VALUES (?, '--?', ?)`, 2},       // comment-start inside a literal
		{`SELECT * FROM t WHERE s = '/*' AND i = ?`, 1}, // block-start inside a literal
		{`SELECT -?-1`, 1},                              // lone minus is not a comment
		{`SELECT 1/?`, 1},                               // lone slash is not a comment
		{``, 0},
	} {
		n := 0
		for _, tok := range lex(t, c.query) {
			if tok.Type == QMARK {
				n++
			}
		}
		if n != c.want {
			t.Errorf("%q lexes %d placeholders, want %d", c.query, n, c.want)
		}
	}
	for _, bad := range []string{`SELECT /* unterminated ?`, `SELECT 'unterminated ?`} {
		if _, err := Tokens(bad); err == nil {
			t.Errorf("Tokens(%q) should fail", bad)
		}
	}
}

func TestLexUnicodeIdent(t *testing.T) {
	toks := lex(t, "über_tabelle")
	if toks[0].Type != IDENT || toks[0].Text != "über_tabelle" {
		t.Errorf("got %v %q", toks[0].Type, toks[0].Text)
	}
}
