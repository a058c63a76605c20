package server

import (
	"fmt"
	"testing"

	"perm/internal/engine"
	"perm/internal/resultmatrix"
	"perm/internal/value"
	"perm/internal/wire"
	"perm/internal/workload"
)

// TestDifferentialErrors holds the failing half of the contract: a statement
// that fails — before its first frame, mid-stream after rows were delivered,
// or with a typed code — delivers the same row prefix and the same error,
// message and code, inline and by name at every fetch size as the embedded
// stream does.
func TestDifferentialErrors(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	addr, srv, shutdown := startServerSrv(t, db, Config{CursorBatchRows: 3})
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	sess := db.NewSession()
	defer sess.Close()

	// collect drains next up to the error, returning the prefix and the error.
	collect := func(next func() (value.Row, error)) ([]value.Row, error) {
		var rows []value.Row
		for {
			row, err := next()
			if err != nil || row == nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	cases := []struct {
		sql      string
		args     []value.Value
		code     uint64
		readOnly bool
	}{
		{sql: `SELECT nope FROM missing`},
		{sql: `SELECT mId, 10 / (mId - 4) FROM messages`},
		{sql: `SELECT PROVENANCE mId, 10 / (mId - ?) FROM messages`, args: []value.Value{value.NewInt(4)}},
		{sql: `SELECT mId FROM messages WHERE mId = ?`}, // one placeholder, no argument
		{sql: `INSERT INTO messages VALUES (?, 'x', 1)`, args: []value.Value{value.NewInt(9)}, code: wire.ErrCodeReadOnly, readOnly: true},
	}
	for i, tc := range cases {
		db.SetReadOnly(tc.readOnly)
		var wantRows []value.Row
		erows, wantErr := sess.Query(tc.sql, tc.args...)
		if wantErr == nil {
			wantRows, wantErr = collect(erows.Next)
			erows.Close()
		}
		if wantErr == nil {
			t.Fatalf("embedded %q: want an error", tc.sql)
		}
		want := resultmatrix.Render(wire.RowDesc{}, wantRows, wantErr.Error())

		name := fmt.Sprintf("eq%d", i)
		if _, err := c.Prepare(name, tc.sql); err != nil {
			t.Fatalf("prepare %q: %v", tc.sql, err)
		}
		for _, fetch := range differentialFetchSizes {
			for _, named := range []bool{false, true} {
				var cur *wire.Cursor
				var err error
				if named {
					cur, err = c.Execute(name, "", tc.args, fetch)
				} else {
					cur, err = c.Execute("", tc.sql, tc.args, fetch)
				}
				var rows []value.Row
				if err == nil {
					rows, err = collect(cur.Next)
					cur.Close()
				}
				se, ok := err.(*wire.ServerError)
				if !ok {
					t.Fatalf("%q fetch %d named %v: error %T %v, want *wire.ServerError", tc.sql, fetch, named, err, err)
				}
				if got := resultmatrix.Render(wire.RowDesc{}, rows, se.Message); got != want || se.Code != tc.code {
					t.Fatalf("%q fetch %d named %v diverged (code %d, want %d):\nwant:\n%s\ngot:\n%s",
						tc.sql, fetch, named, se.Code, tc.code, want, got)
				}
			}
		}
		if i == 1 && len(wantRows) == 0 {
			t.Fatalf("%q failed before its first row; the case is meant to fail mid-stream", tc.sql)
		}
		// The connection is still in sync after every failure.
		if done, err := c.ExecuteDrain("", `SELECT 1`, nil); err != nil || done.Tag != "SELECT 1" {
			t.Fatalf("after %q: %+v, %v", tc.sql, done, err)
		}
	}
	if n := srv.ActivePortals(); n != 0 {
		t.Fatalf("portals leaked: %d", n)
	}
}

// TestDifferentialDML proves DML binds mutate identically to literal DML:
// the same statements run with binds over the wire against one database and
// as literals embedded against another, then every table must render
// byte-identically (assertIdentical, PR 3's comparator).
func TestDifferentialDML(t *testing.T) {
	bindDB := engine.NewDB()
	litDB := engine.NewDB()
	for _, db := range []*engine.DB{bindDB, litDB} {
		if err := workload.LoadPaperExample(db); err != nil {
			t.Fatal(err)
		}
	}
	addr, shutdown := startServer(t, bindDB, Config{})
	defer shutdown()

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	litSess := litDB.NewSession()
	defer litSess.Close()

	type dml struct {
		sql     string
		args    []value.Value
		literal string
	}
	steps := []dml{
		{
			sql:     `INSERT INTO messages VALUES (?, ?, ?)`,
			args:    []value.Value{value.NewInt(9), value.NewString("bound insert"), value.NewInt(1)},
			literal: `INSERT INTO messages VALUES (9, 'bound insert', 1)`,
		},
		{
			sql:     `UPDATE users SET name = ? WHERE uId = ?`,
			args:    []value.Value{value.NewString("Bound Bertha"), value.NewInt(1)},
			literal: `UPDATE users SET name = 'Bound Bertha' WHERE uId = 1`,
		},
		{
			sql:     `DELETE FROM approved WHERE mId = ?`,
			args:    []value.Value{value.NewInt(2)},
			literal: `DELETE FROM approved WHERE mId = 2`,
		},
		{
			sql:     `INSERT INTO imports (mId, text) SELECT mId + ?, text FROM messages WHERE mId = ?`,
			args:    []value.Value{value.NewInt(100), value.NewInt(9)},
			literal: `INSERT INTO imports (mId, text) SELECT mId + 100, text FROM messages WHERE mId = 9`,
		},
	}
	for _, st := range steps {
		done, err := c.Execute("", st.sql, st.args, 0)
		if err != nil {
			t.Fatalf("bind dml %q: %v", st.sql, err)
		}
		if err := done.Close(); err != nil {
			t.Fatalf("bind dml close %q: %v", st.sql, err)
		}
		lres, err := litSess.Execute(st.literal)
		if err != nil {
			t.Fatalf("literal dml %q: %v", st.literal, err)
		}
		if done.Complete.Tag != lres.Tag {
			t.Fatalf("dml %q: bind tag %q, literal tag %q", st.sql, done.Complete.Tag, lres.Tag)
		}
	}
	assertIdentical(t, bindDB, litDB, append(resultmatrix.PaperSuite,
		`SELECT * FROM imports ORDER BY mId, text`,
		`SELECT PROVENANCE * FROM messages ORDER BY mId`,
	))
}
