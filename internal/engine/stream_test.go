package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"perm/internal/value"
)

func seedStreamDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	for _, stmt := range []string{
		`CREATE TABLE t (i int, s text)`,
		`INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, NULL)`,
	} {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

// TestStreamedTagAgreesWithExecute is the drain-time tag regression:
// Session.Query's "SELECT n" must count delivered rows and agree with the
// materialized Execute path for every query shape.
func TestStreamedTagAgreesWithExecute(t *testing.T) {
	db := seedStreamDB(t)
	s := db.NewSession()
	defer s.Close()

	for _, q := range []string{
		`SELECT i FROM t`,
		`SELECT i FROM t WHERE i > 3`,
		`SELECT i FROM t LIMIT 2`,
		`SELECT i FROM t WHERE i < 0`,
		`SELECT PROVENANCE i FROM t`,
		`SELECT count(*) FROM t`,
	} {
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		rows, err := s.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		n := 0
		for {
			row, err := rows.Next()
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if row == nil {
				break
			}
			n++
		}
		if want := fmt.Sprintf("SELECT %d", len(res.Rows)); rows.Tag() != want || res.Tag != want {
			t.Fatalf("%q: streamed tag %q, materialized tag %q, want %q", q, rows.Tag(), res.Tag, want)
		}
		if n != len(res.Rows) {
			t.Fatalf("%q: streamed %d rows, materialized %d", q, n, len(res.Rows))
		}
	}
}

// TestStreamAbandonedEarly closes a half-read stream: the tag reflects only
// the delivered rows (drain-time counting, not plan-time), and the session
// keeps working.
func TestStreamAbandonedEarly(t *testing.T) {
	db := seedStreamDB(t)
	s := db.NewSession()
	defer s.Close()

	rows, err := s.Query(`SELECT i FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rows.Tag(); got != "SELECT 2" {
		t.Fatalf("abandoned tag = %q, want SELECT 2", got)
	}
	// Idempotent close, then the session is free for the next statement.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute(`SELECT count(*) FROM t`)
	if err != nil || res.Rows[0][0].Int() != 5 {
		t.Fatalf("after abandon: %v %v", res, err)
	}
}

// TestPreparedBindsAndPlanCache exercises engine prepared statements: typed
// binds, per-kind-vector plan caching, and rebinding with different kinds.
func TestPreparedBindsAndPlanCache(t *testing.T) {
	db := seedStreamDB(t)
	s := db.NewSession()
	defer s.Close()

	prep, err := s.Prepare(`SELECT i, s FROM t WHERE i >= ? ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	if prep.NumParams() != 1 {
		t.Fatalf("NumParams = %d", prep.NumParams())
	}
	res, err := prep.Exec(value.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != "SELECT 2" || res.CacheHit {
		t.Fatalf("first bind: tag=%q cacheHit=%v", res.Tag, res.CacheHit)
	}
	// Same kind vector: plan-cache hit.
	res, err = prep.Exec(value.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != "SELECT 4" || !res.CacheHit {
		t.Fatalf("second bind: tag=%q cacheHit=%v, want hit", res.Tag, res.CacheHit)
	}
	// A float argument is a different kind vector: re-planned, not served
	// from the int-typed entry.
	res, err = prep.Exec(value.NewFloat(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tag != "SELECT 3" || res.CacheHit {
		t.Fatalf("float bind: tag=%q cacheHit=%v, want miss", res.Tag, res.CacheHit)
	}

	// Wrong arity is rejected before execution.
	if _, err := prep.Exec(); err == nil || !strings.Contains(err.Error(), "binds 1 parameters") {
		t.Fatalf("arity error = %v", err)
	}

	// Query with arguments is Prepare + Query without the handle: it shares
	// the prepared statement's cache entry (same text, same kind vector), so
	// it neither parses nor plans here, and a new kind vector does both.
	rows, err := s.Query(`SELECT i, s FROM t WHERE i >= ? ORDER BY i`, value.NewInt(4))
	if err != nil {
		t.Fatal(err)
	}
	if res, err = rows.DrainResult(); err != nil || res.Tag != "SELECT 2" || !res.CacheHit || res.Timings.Parse != 0 {
		t.Fatalf("inline bind: %+v, %v; want a cache hit that did not parse", res, err)
	}
	if rows, err = s.Query(`SELECT i, s FROM t WHERE i >= ? ORDER BY i`, value.Null); err == nil {
		res, err = rows.DrainResult()
	}
	if err != nil || res.CacheHit || res.Timings.Parse == 0 {
		t.Fatalf("inline bind of a new kind: %+v, %v; want a parsed miss", res, err)
	}
	if _, err := s.Query(`SELECT i FROM t WHERE i = ?`, value.NewInt(1), value.NewInt(2)); err == nil ||
		!strings.Contains(err.Error(), "binds 1 parameters, got 2") {
		t.Fatalf("inline arity error = %v", err)
	}

	// An unbound placeholder in plain Execute is a statement error, not a
	// crash: the same arity check, made when the text is parsed.
	if _, err := s.Execute(`SELECT i FROM t WHERE i = ?`); err == nil ||
		!strings.Contains(err.Error(), "binds 1 parameters, got 0") {
		t.Fatalf("unbound placeholder error = %v", err)
	}
}

// TestPreparedDMLBinds binds parameters through INSERT, UPDATE and DELETE.
func TestPreparedDMLBinds(t *testing.T) {
	db := seedStreamDB(t)
	s := db.NewSession()
	defer s.Close()

	ins, err := s.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ins.Exec(value.NewInt(6), value.NewString("f")); err != nil || res.Tag != "INSERT 1" {
		t.Fatalf("insert binds: %v %v", res, err)
	}
	up, err := s.Prepare(`UPDATE t SET s = ? WHERE i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := up.Exec(value.NewString("bound"), value.NewInt(6)); err != nil || res.Tag != "UPDATE 1" {
		t.Fatalf("update binds: %v %v", res, err)
	}
	del, err := s.Prepare(`DELETE FROM t WHERE s = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := del.Exec(value.NewString("bound")); err != nil || res.Tag != "DELETE 1" {
		t.Fatalf("delete binds: %v %v", res, err)
	}
	if res, err := s.Execute(`SELECT count(*) FROM t`); err != nil || res.Rows[0][0].Int() != 5 {
		t.Fatalf("final count: %v %v", res, err)
	}
}

// TestStreamInterruptMidDrain cancels a session mid-stream: Next must
// unwind with the interrupt error instead of producing further rows.
func TestStreamInterruptMidDrain(t *testing.T) {
	db := seedStreamDB(t)
	s := db.NewSession()
	defer s.Close()

	// A cross join large enough that the interrupt poll (every 256 rows)
	// fires long before exhaustion.
	big := db.NewSession()
	defer big.Close()
	if _, err := big.Execute(`INSERT INTO t SELECT i + 10, s FROM t`); err != nil {
		t.Fatal(err)
	}

	s.SetDeadline(time.Now().Add(-time.Second)) // already expired
	rows, err := s.Query(`SELECT a.i FROM t a, t b, t c, t d`)
	if err == nil {
		// The deadline may fire at open or at first poll; drain until it does.
		for {
			row, nerr := rows.Next()
			if nerr != nil {
				err = nerr
				break
			}
			if row == nil {
				t.Fatal("expired deadline never interrupted the stream")
			}
		}
	}
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupt", err)
	}
	s.SetDeadline(time.Time{})
}
