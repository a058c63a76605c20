package engine

import (
	"errors"
	"strings"
	"testing"

	"perm/internal/storage"
	"perm/internal/value"
)

// execErr runs q and returns its error, failing the test when it succeeds.
func execErr(t *testing.T, s *Session, q string) error {
	t.Helper()
	res, err := s.Execute(q)
	if err == nil {
		t.Fatalf("Execute(%q) = %q, want an error", q, res.Tag)
	}
	return err
}

// rowsOf renders a result's rows, one per line, for comparisons.
func rowsOf(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// A column list that names a column twice, and an UPDATE that assigns one
// twice, are refused at analysis with PostgreSQL's messages; nothing is
// written.
func TestDMLColumnNamedTwice(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b int)`)
	exec(t, s, `INSERT INTO t VALUES (1, 1)`)
	for q, want := range map[string]string{
		`INSERT INTO t (a, a) VALUES (1, 2)`: `column "a" specified more than once`,
		`UPDATE t SET a = 5, a = 6`:          `multiple assignments to same column "a"`,
		`UPDATE t SET a = 5, A = 6`:          `multiple assignments to same column`,
	} {
		if err := execErr(t, s, q); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q, want %q", q, err, want)
		}
	}
	if got := rowsOf(exec(t, s, `SELECT a, b FROM t`)); got != "1|1\n" {
		t.Errorf("rows after refused writes:\n%s", got)
	}
}

// The WHERE of an UPDATE or DELETE is checked as a SELECT's is, on an empty
// table too.
func TestDMLWhereCheckedAsSelect(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE e (a int, b int)`)
	want := execErr(t, s, `SELECT * FROM e WHERE 1`).Error()
	if !strings.Contains(want, "WHERE condition must be boolean, got integer") {
		t.Fatalf("SELECT error %q", want)
	}
	for _, q := range []string{`DELETE FROM e WHERE 1`, `UPDATE e SET a = 1 WHERE b`} {
		if err := execErr(t, s, q); err.Error() != want {
			t.Errorf("%s: error %q, want SELECT's %q", q, err, want)
		}
	}
}

// The WHERE of an UPDATE or DELETE may hold a SELECT PROVENANCE subquery, as
// a SELECT's may: the write touches the rows the SELECT with the same WHERE
// returns.
func TestDMLWhereProvenanceSubquery(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE e (a int, b int)`)
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1), (3)`)
	exec(t, s, `INSERT INTO e VALUES (1, 10), (3, 30), (5, 50)`)
	where := `WHERE EXISTS (SELECT PROVENANCE a FROM t WHERE a = e.a)`
	sel := rowsOf(exec(t, s, `SELECT a, b FROM e `+where+` ORDER BY a`))
	if sel != "1|10\n3|30\n" {
		t.Fatalf("SELECT %s:\n%s", where, sel)
	}
	if res := exec(t, s, `UPDATE e SET b = b + 1 `+where); res.Tag != "UPDATE 2" {
		t.Errorf("UPDATE tag %q", res.Tag)
	}
	if got := rowsOf(exec(t, s, `SELECT a, b FROM e ORDER BY a`)); got != "1|11\n3|31\n5|50\n" {
		t.Errorf("after UPDATE:\n%s", got)
	}
	where = `WHERE EXISTS (SELECT PROVENANCE a FROM t WHERE a = 3)`
	if n := len(exec(t, s, `SELECT * FROM e `+where).Rows); n != 3 {
		t.Fatalf("SELECT %s: %d rows", where, n)
	}
	if res := exec(t, s, `DELETE FROM e `+where); res.Tag != "DELETE 3" {
		t.Errorf("DELETE tag %q", res.Tag)
	}
}

// EXPLAIN of a write prints its optimized plan under a Modify root with
// estimates, and writes nothing.
func TestExplainDML(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b text)`)
	exec(t, s, `INSERT INTO t VALUES (1, 'x')`)
	for q, root := range map[string]string{
		`INSERT INTO t (b) VALUES ('y')`:      "Modify INSERT t",
		`UPDATE t SET b = 'z' WHERE a = 1`:    "Modify UPDATE t",
		`DELETE FROM t WHERE a IN (SELECT 1)`: "Modify DELETE t",
	} {
		out := rowsOf(exec(t, s, "EXPLAIN "+q))
		if !strings.Contains(out, "Original query: "+q) || !strings.Contains(out, "Optimized plan:\n"+root+"  (est≈") {
			t.Errorf("EXPLAIN %s:\n%s", q, out)
		}
	}
	if got := rowsOf(exec(t, s, `SELECT a, b FROM t`)); got != "1|x\n" {
		t.Errorf("EXPLAIN wrote rows:\n%s", got)
	}
	err := execErr(t, s, `EXPLAIN ANALYZE DELETE FROM t`)
	if !strings.Contains(err.Error(), "EXPLAIN ANALYZE would run the DELETE") {
		t.Errorf("EXPLAIN ANALYZE DELETE: %v", err)
	}
}

// A prepared INSERT, UPDATE and DELETE is served from the plan cache on its
// second run, and DROP plus CREATE of its table makes it plan again.
func TestPreparedDMLIsCached(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b int)`)
	stmts := []struct {
		sql  string
		args []value.Value
		tag  string
	}{
		{`INSERT INTO t VALUES (?, ?)`, []value.Value{value.NewInt(1), value.NewInt(10)}, "INSERT 1"},
		{`UPDATE t SET b = b + ? WHERE a = ?`, []value.Value{value.NewInt(5), value.NewInt(1)}, "UPDATE 1"},
		{`DELETE FROM t WHERE a = ?`, []value.Value{value.NewInt(1)}, "DELETE 1"},
	}
	for round, hit := range []bool{false, true, false} {
		if round == 2 {
			exec(t, s, `DROP TABLE t`)
			exec(t, s, `CREATE TABLE t (a int, b int)`)
		}
		for _, st := range stmts {
			p, err := s.Prepare(st.sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Exec(st.args...)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, st.sql, err)
			}
			if res.Tag != st.tag || res.CacheHit != hit || len(res.Columns) != 0 || len(res.Rows) != 0 {
				t.Errorf("round %d %s: tag %q hit %v columns %v rows %v, want %q hit %v",
					round, st.sql, res.Tag, res.CacheHit, res.Columns, res.Rows, st.tag, hit)
			}
		}
	}
}

// A write cached while the node was a primary is refused once it is
// read-only, and writes nothing.
func TestCachedDMLRefusedWhenReadOnly(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a int)`)
	for _, q := range []string{`INSERT INTO t VALUES (1)`, `UPDATE t SET a = 2`, `DELETE FROM t WHERE a = 3`} {
		exec(t, s, q)
		if res := exec(t, s, q); !res.CacheHit {
			t.Fatalf("%s: second run is not a cache hit", q)
		}
	}
	before := rowsOf(exec(t, s, `SELECT a FROM t`))
	db.SetReadOnly(true)
	for _, q := range []string{`INSERT INTO t VALUES (1)`, `UPDATE t SET a = 2`, `DELETE FROM t WHERE a = 3`} {
		if err := execErr(t, s, q); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on a read-only node: %v, want ErrReadOnly", q, err)
		}
	}
	db.SetReadOnly(false)
	if after := rowsOf(exec(t, s, `SELECT a FROM t`)); after != before {
		t.Errorf("rows changed on a read-only node: %q, then %q", before, after)
	}
}

// A write inside BEGIN after the store was swapped out fails with the
// store-replaced error and writes nothing to either store.
func TestDMLAfterSwapStoreInTxn(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a int)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	old := db.Store()
	fresh := storage.NewStore()
	if _, err := fresh.CreateTable(old.Catalog().Table("t")); err != nil {
		t.Fatal(err)
	}
	exec(t, s, `BEGIN`)
	db.SwapStore(fresh)
	for _, q := range []string{`UPDATE t SET a = 2`, `INSERT INTO t VALUES (1)`} {
		if err := execErr(t, s, q); !strings.Contains(err.Error(), "store was replaced") {
			t.Errorf("%s: %v", q, err)
		}
	}
	exec(t, s, `ROLLBACK`)
	if got := rowsOf(exec(t, s, `SELECT a FROM t`)); got != "" {
		t.Errorf("new store has rows:\n%s", got)
	}
	if rows := old.Table("t").Snapshot(); len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("old store rows: %v", rows)
	}
}

// INSERT ... SELECT PROVENANCE (eager provenance into an existing table)
// stores the witness columns the SELECT returns.
func TestInsertSelectProvenance(t *testing.T) {
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b text)`)
	exec(t, s, `INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	q := `SELECT PROVENANCE a, b FROM t WHERE a >= 2`
	want := exec(t, s, q)
	if len(want.Columns) != 4 {
		t.Fatalf("provenance columns: %v", want.Columns)
	}
	exec(t, s, `CREATE TABLE p (a int, b text, prov_a int, prov_b text)`)
	if res := exec(t, s, `INSERT INTO p `+q); res.Tag != "INSERT 2" {
		t.Errorf("tag %q", res.Tag)
	}
	if got := rowsOf(exec(t, s, `SELECT * FROM p`)); got != rowsOf(want) {
		t.Errorf("stored:\n%swant:\n%s", got, rowsOf(want))
	}
}
