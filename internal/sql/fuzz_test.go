package sql

import (
	"reflect"
	"testing"

	"perm/internal/value"
)

// FuzzParse holds the reader of SQL text to its own rules on arbitrary
// input: lexing and parsing never panic, every token's source span lexes
// back to the same token, FirstKeyword names the first token, and a view
// stores text that parses to the query it was defined with.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		``,
		`SELECT * FROM t WHERE a = ? AND b = ?`,
		`SELECT '?' FROM t`,
		`SELECT "?" FROM t`,
		`SELECT '??''?' FROM t WHERE x = ?`,
		"-- ?\nSELECT ?",
		`/* ? /* nested ? */ ? */ SELECT ?`,
		`SELECT 1?2`,
		`SELECT 'unterminated ?`,
		`/* unterminated ?`,
		`SELECT '' '' ? ""`,
		`INSERT INTO t VALUES (?, ?, 'a''?', ?)`,
		`SELECT e? FROM t`,
		`SELECT 1.5e? FROM t`,
		"SELECT ?;\n-- trailing ?",
		`;(SELECT PROVENANCE a FROM t BASERELATION) UNION VALUES (1.5e3)`,
		`SELECT über, "Mixed" FROM "order" WHERE x <> 'é' ORDER BY 1 DESC LIMIT 2`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseScript(src) // must never panic, whatever the input
		toks, err := Tokens(src)
		if err != nil {
			return
		}
		for _, tok := range toks[:len(toks)-1] {
			again, err := Tokens(src[tok.Off:tok.End])
			if err != nil || len(again) != 2 || again[0].Type != tok.Type || again[0].Text != tok.Text ||
				again[0].End != tok.End-tok.Off {
				t.Fatalf("token %v %q at [%d,%d) of %q re-lexes to %v (%v)", tok.Type, tok.Text, tok.Off, tok.End, src, again, err)
			}
		}
		first := toks[0]
		for i := 1; first.Type == SEMI; i++ {
			first = toks[i]
		}
		if got := FirstKeyword(src); got != src[first.Off:first.End] {
			t.Fatalf("FirstKeyword(%q) = %q, first token %q", src, got, src[first.Off:first.End])
		}
		st, err := Parse("CREATE VIEW v AS " + src)
		if err != nil {
			return
		}
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("CREATE VIEW v AS %q parses, the query alone does not: %v", src, err)
		}
		text := st.(*CreateViewStmt).Text
		if again, err := Parse(text); err != nil || !sameStatement(again, q) {
			t.Fatalf("view text %q of %q parses to a different statement (%v)", text, src, err)
		}
	})
}

// sameStatement reports whether two parsed statements are the same tree.
// Literal values compare by kind and SQL literal, everything else field by
// field.
func sameStatement(a, b Statement) bool { return sameTree(reflect.ValueOf(a), reflect.ValueOf(b)) }

var valueType = reflect.TypeOf(value.Value{})

func sameTree(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.Type() == valueType {
			x, y := a.Interface().(value.Value), b.Interface().(value.Value)
			return x.Kind() == y.Kind() && x.SQLLiteral() == y.SQLLiteral()
		}
		for i := 0; i < a.NumField(); i++ {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}
