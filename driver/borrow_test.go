package driver_test

import (
	"database/sql"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/value"
	"perm/internal/wire"
)

// borrowData is a 2000-row table whose grp < 10 selects 1000 rows: more
// than one of the driver's fetch batches.
func borrowData() []string {
	var vals []string
	for i := 0; i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 'owner-%d', %d, %d)", i, i%37, i%20, 100+i))
	}
	return []string{
		`CREATE TABLE acct (id int, owner text, grp int, bal int)`,
		`INSERT INTO acct VALUES ` + strings.Join(vals, ", "),
	}
}

// borrowWrites are statements the session drains itself: whatever the
// caller's cursor says about its own rows, their plans keep every row. The
// computing projections and the join make rows at the plan's root, where a
// leaked reuse word would refill one row under every kept row.
var borrowWrites = []string{
	`CREATE TABLE c1 AS SELECT PROVENANCE id, upper(owner) AS o, bal * 2 AS b FROM acct WHERE grp < 10`,
	`CREATE TABLE c2 AS SELECT PROVENANCE a.id, b.owner FROM acct a JOIN acct b ON a.id = b.bal - 100 WHERE a.grp < 3`,
	`CREATE TABLE i1 (id int, o text, b int, p1 int, p2 text, p3 int, p4 int)`,
	`INSERT INTO i1 SELECT PROVENANCE id, upper(owner), bal * 2 FROM acct WHERE grp < 10`,
	`INSERT INTO i1 SELECT PROVENANCE id, upper(owner), bal * 2 FROM acct WHERE grp < 10`,
}

var borrowTables = []string{"c1", "c2", "i1"}

// tableText renders a table in one order as text, through an embedded
// session's Execute.
func tableText(t *testing.T, db *engine.DB) string {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	var b strings.Builder
	for _, tab := range borrowTables {
		res, err := s.Execute(`SELECT * FROM ` + tab)
		if err != nil {
			t.Fatalf("%s: %v", tab, err)
		}
		lines := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			lines[i] = rowText(row)
		}
		slices.Sort(lines)
		fmt.Fprintf(&b, "%s %v\n%s\n", tab, res.Columns, strings.Join(lines, "\n"))
	}
	return b.String()
}

func rowText(row value.Row) string {
	f := make([]string, len(row))
	for i, v := range row {
		switch v.Kind() {
		case value.KindInt:
			f[i] = strconv.FormatInt(v.Int(), 10)
		case value.KindString:
			f[i] = strconv.Quote(v.Str())
		default:
			f[i] = v.String()
		}
	}
	return strings.Join(f, "|")
}

// loaded returns an engine holding borrowData.
func loaded(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB()
	s := db.NewSession()
	defer s.Close()
	for _, q := range borrowData() {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDrainedStatementsKeepTheirRows: CREATE TABLE AS and INSERT … SELECT
// PROVENANCE issued through the server (a wire client, database/sql) and
// through the embedded driver leave tables identical to those the same
// statements leave through an embedded Execute. Under -tags stalerows a row
// the reuse word wrongly reached would read "<stale row>".
func TestDrainedStatementsKeepTheirRows(t *testing.T) {
	ref := loaded(t)
	s := ref.NewSession()
	for _, q := range borrowWrites {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
	}
	s.Close()
	want := tableText(t, ref)

	// A wire client: the server opens every statement as a borrowed portal.
	wdb := loaded(t)
	c, err := wire.Dial(startServer(t, wdb, server.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range borrowWrites {
		if _, err := c.ExecuteDrain("", q, nil); err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
	}
	c.Close()
	if got := tableText(t, wdb); got != want {
		t.Errorf("wire client: tables differ from embedded Execute\n got %.300s\nwant %.300s", got, want)
	}

	// database/sql over the wire, then embedded: every statement is issued
	// as a query (the driver's borrowed stream), prepared or not.
	sdb := loaded(t)
	for _, tc := range []struct {
		name, dsn string
		read      func() string
	}{
		{"remote", "tcp://" + startServer(t, sdb, server.Config{}), func() string { return tableText(t, sdb) }},
		{"embedded", "mem://", nil},
	} {
		db, err := sql.Open("perm", tc.dsn)
		if err != nil {
			t.Fatal(err)
		}
		if tc.read == nil {
			for _, q := range borrowData() {
				if _, err := db.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			// The embedded engine is reached only through the driver: read
			// it back through the driver, rendered as tableText renders.
			tc.read = func() string { return sqlTableText(t, db) }
		}
		for i, q := range borrowWrites {
			var rows *sql.Rows
			if i%2 == 0 {
				rows, err = db.Query(q)
			} else {
				var st *sql.Stmt
				if st, err = db.Prepare(q); err == nil {
					rows, err = st.Query()
					defer st.Close()
				}
			}
			if err != nil {
				t.Fatalf("%s: %.60s: %v", tc.name, q, err)
			}
			rows.Close()
		}
		if got := tc.read(); got != want {
			t.Errorf("%s: tables differ from embedded Execute\n got %.300s\nwant %.300s", tc.name, got, want)
		}
		db.Close()
	}
}

// sqlTableText is tableText through database/sql.
func sqlTableText(t *testing.T, db *sql.DB) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range borrowTables {
		rows, err := db.Query(`SELECT * FROM ` + tab)
		if err != nil {
			t.Fatalf("%s: %v", tab, err)
		}
		cols, _ := rows.Columns()
		var lines []string
		for rows.Next() {
			dest := make([]any, len(cols))
			for i := range dest {
				dest[i] = new(any)
			}
			if err := rows.Scan(dest...); err != nil {
				t.Fatal(err)
			}
			row := make(value.Row, len(cols))
			for i, d := range dest {
				switch v := (*d.(*any)).(type) {
				case int64:
					row[i] = value.NewInt(v)
				case string:
					row[i] = value.NewString(v)
				case nil:
					row[i] = value.Null
				default:
					t.Fatalf("%s: unexpected %T", tab, v)
				}
			}
			lines = append(lines, rowText(row))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		slices.Sort(lines)
		fmt.Fprintf(&b, "%s %v\n%s\n", tab, cols, strings.Join(lines, "\n"))
	}
	return b.String()
}

// TestScannedValuesOutliveNext: what Scan stored for one row — into *any,
// *string and *int64 — is unchanged after the rows advance past it, across
// fetch batches, over the wire and embedded.
func TestScannedValuesOutliveNext(t *testing.T) {
	for _, tc := range []struct{ name, dsn string }{
		{"remote", "tcp://" + startServer(t, loaded(t), server.Config{})},
		{"embedded", "mem://"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := sql.Open("perm", tc.dsn)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if tc.name == "embedded" {
				for _, q := range borrowData() {
					if _, err := db.Exec(q); err != nil {
						t.Fatal(err)
					}
				}
			}
			rows, err := db.Query(`SELECT PROVENANCE id, upper(owner) AS o, bal * 2 AS b FROM acct WHERE grp < 10 ORDER BY id`)
			if err != nil {
				t.Fatal(err)
			}
			defer rows.Close()
			type kept struct {
				id    any
				owner string
				bal   int64
				prov  any
			}
			var got []kept
			for rows.Next() {
				var k kept
				var skip1, skip2, skip3 any
				if err := rows.Scan(&k.id, &k.owner, &k.bal, &skip1, &k.prov, &skip2, &skip3); err != nil {
					t.Fatal(err)
				}
				got = append(got, k)
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1000 {
				t.Fatalf("%d rows, want 1000", len(got))
			}
			for n, k := range got {
				i := int64(n/10*20 + n%10)
				want := kept{i, fmt.Sprintf("OWNER-%d", i%37), 2 * (100 + i), fmt.Sprintf("owner-%d", i%37)}
				if k != want {
					t.Fatalf("row %d: %#v after the rows moved on, want %#v", n, k, want)
				}
			}
		})
	}
}
