package driver

import (
	sqldriver "database/sql/driver"
	"errors"
	"testing"
)

// TestPlaceholderPositionsUnit substitutes at exactly the offsets of the
// lexer's placeholders: a `?` in a literal, a quoted identifier or a
// comment stays.
func TestPlaceholderPositionsUnit(t *testing.T) {
	got, err := interpolate(`SELECT 'a?', ? /* ? */, ?`, []sqldriver.NamedValue{
		{Ordinal: 1, Value: int64(7)},
		{Ordinal: 2, Value: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := `SELECT 'a?', 7 /* ? */, 'x'`; got != want {
		t.Errorf("interpolate = %q, want %q", got, want)
	}
}

// TestFirstKeyword runs the `?readonly` gate, which decides by a
// statement's first keyword past whitespace, comments and empty statements.
func TestFirstKeyword(t *testing.T) {
	c := &conn{readOnly: true}
	for _, tc := range []struct {
		in    string
		write bool
	}{
		{`SELECT 1`, false},
		{`  select provenance x FROM t`, false},
		{"-- lead comment\nINSERT INTO t VALUES (1)", true},
		{`/* c */ UPDATE t SET i = 1`, true},
		{`/* a /* nested */ b */ delete FROM t`, true},
		{`(SELECT 1)`, false},
		{`  `, false},
		{`;INSERT INTO t VALUES (1)`, true}, // the parser skips empty statements too
		{`; ; update t set i = 1`, true},
		{`;;`, false},
		{`EXPLAIN SELECT 1`, false},
		{`SET optimizer = 'off'`, false},
		{`analyze`, true},
	} {
		if err := c.checkReadOnly(tc.in); errors.Is(err, ErrReadOnly) != tc.write {
			t.Errorf("checkReadOnly(%q) = %v, want write = %v", tc.in, err, tc.write)
		}
	}
}
