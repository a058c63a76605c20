package driver

import (
	"database/sql"
	"fmt"
	"strings"
	"testing"

	permsql "perm/internal/sql"
)

// FuzzPlaceholders pins the driver's argument count to the engine lexer
// across arbitrary inputs: `?` inside string literals, quoted identifiers,
// and line/block comments never counts; every other `?` does. A statement
// run with one argument more than the lexer finds placeholders never runs,
// and when it parses it fails with the engine's bind-count error for
// exactly that many.
func FuzzPlaceholders(f *testing.F) {
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
	} {
		f.Add(seed)
	}
	db, err := sql.Open("perm", "mem://")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	f.Fuzz(func(t *testing.T, query string) {
		toks, lexErr := permsql.Tokens(query)
		n := 0
		for _, tok := range toks {
			if tok.Type == permsql.QMARK {
				n++
			}
		}
		args := make([]any, n+1)
		for i := range args {
			args[i] = int64(i)
		}
		_, err := db.Exec(query, args...)
		if err == nil {
			t.Fatalf("%q ran with %d arguments; the lexer finds %d placeholders", query, n+1, n)
		}
		if _, _, perr := permsql.ParseWithParams(query); lexErr == nil && perr == nil {
			want := fmt.Sprintf("engine: statement binds %d parameters, got %d arguments", n, n+1)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%q with %d arguments: err = %v, want %q", query, n+1, err, want)
			}
		}
	})
}
