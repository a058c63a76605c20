package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func txnDB(t testing.TB) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	t.Cleanup(func() { s.Close() })
	mustExecSpill(t, s, `CREATE TABLE acct (id int, bal int)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO acct VALUES `)
	for i := 0; i < 16; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 100)", i)
	}
	mustExecSpill(t, s, b.String())
	return db, s
}

func TestTransactionLifecycle(t *testing.T) {
	db, s := txnDB(t)
	other := db.NewSession()
	defer other.Close()

	res := mustExecSpill(t, s, `BEGIN`)
	if res.Tag != "BEGIN" {
		t.Fatalf("tag = %q", res.Tag)
	}
	mustExecSpill(t, s, `INSERT INTO acct VALUES (99, 7)`)
	mustExecSpill(t, s, `UPDATE acct SET bal = 0 WHERE id = 0`)
	mustExecSpill(t, s, `DELETE FROM acct WHERE id = 1`)

	// Read-your-writes inside the transaction — through the plain scan and
	// through the provenance rewriter.
	if got := mustExecSpill(t, s, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 16 {
		t.Fatalf("in-txn count = %d, want 16 (15 survivors + 1 insert)", got)
	}
	prov := mustExecSpill(t, s, `SELECT PROVENANCE id, bal FROM acct WHERE id = 99`)
	if len(prov.Rows) != 1 || prov.Rows[0][1].Int() != 7 {
		t.Fatalf("provenance read of own insert: %v", prov.Rows)
	}

	// Invisible to every other session until COMMIT.
	if got := mustExecSpill(t, other, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 16 {
		t.Fatalf("other session sees %d rows mid-txn, want the original 16", got)
	}

	// Statement errors inside a transaction do not abort it.
	if _, err := s.Execute(`SELECT 1/0 FROM acct`); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if res := mustExecSpill(t, s, `COMMIT`); res.Tag != "COMMIT" {
		t.Fatalf("tag = %q", res.Tag)
	}
	if got := mustExecSpill(t, other, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 16 {
		t.Fatalf("after commit other session sees %d rows, want 16", got)
	}
	if got := mustExecSpill(t, other, `SELECT bal FROM acct WHERE id = 0`).Rows[0][0].Int(); got != 0 {
		t.Fatalf("committed update not visible")
	}

	// ROLLBACK discards everything.
	mustExecSpill(t, s, `BEGIN`)
	mustExecSpill(t, s, `DELETE FROM acct`)
	if res := mustExecSpill(t, s, `ROLLBACK`); res.Tag != "ROLLBACK" {
		t.Fatalf("tag = %q", res.Tag)
	}
	if got := mustExecSpill(t, s, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 16 {
		t.Fatalf("after rollback %d rows, want 16", got)
	}

	// State machine: no nesting, no finishing what is not open.
	mustExecSpill(t, s, `BEGIN`)
	if _, err := s.Execute(`BEGIN`); err == nil {
		t.Fatal("nested BEGIN succeeded")
	}
	if _, err := s.Execute(`CREATE TABLE x (a int)`); err == nil {
		t.Fatal("DDL inside a transaction succeeded")
	}
	if _, err := s.Execute(`ANALYZE acct`); err == nil {
		t.Fatal("ANALYZE inside a transaction succeeded")
	}
	mustExecSpill(t, s, `ROLLBACK`)
	if _, err := s.Execute(`COMMIT`); err == nil {
		t.Fatal("COMMIT without a transaction succeeded")
	}
	if _, err := s.Execute(`ROLLBACK`); err == nil {
		t.Fatal("ROLLBACK without a transaction succeeded")
	}

	// Every pin is released once no statement or transaction is open.
	if st := db.Store().MVCCStatus(); st.Pins != 0 {
		t.Fatalf("outstanding snapshot pins = %d, want 0", st.Pins)
	}
	ms := mustExecSpill(t, s, `SHOW mvcc_status`)
	if len(ms.Columns) != 8 || len(ms.Rows) != 1 {
		t.Fatalf("SHOW mvcc_status shape: %v", ms.Columns)
	}
}

// TestSessionCloseRollsBack pins that an abandoned transaction cannot hold
// the vacuum horizon (or half-applied effects) past its session.
func TestSessionCloseRollsBack(t *testing.T) {
	db, s := txnDB(t)
	doomed := db.NewSession()
	mustExecSpill(t, doomed, `BEGIN`)
	mustExecSpill(t, doomed, `DELETE FROM acct`)
	if st := db.Store().MVCCStatus(); st.Pins == 0 {
		t.Fatal("open transaction holds no snapshot pin")
	}
	doomed.Close()
	if st := db.Store().MVCCStatus(); st.Pins != 0 {
		t.Fatalf("pins after session close = %d, want 0", st.Pins)
	}
	if got := mustExecSpill(t, s, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 16 {
		t.Fatalf("abandoned transaction leaked effects: %d rows", got)
	}
}

func TestTransactionWriteConflict(t *testing.T) {
	db, _ := txnDB(t)
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()

	mustExecSpill(t, s1, `BEGIN`)
	mustExecSpill(t, s2, `BEGIN`)
	mustExecSpill(t, s1, `UPDATE acct SET bal = bal + 1 WHERE id = 3`)
	mustExecSpill(t, s2, `UPDATE acct SET bal = bal + 10 WHERE id = 3`)
	mustExecSpill(t, s1, `COMMIT`)
	_, err := s2.Execute(`COMMIT`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second committer: err = %v, want ErrWriteConflict", err)
	}
	// The losing transaction is already finished: the session is back in
	// autocommit, and none of its effects landed.
	if _, err := s2.Execute(`COMMIT`); err == nil {
		t.Fatal("COMMIT after a conflict-aborted transaction succeeded")
	}
	if got := mustExecSpill(t, s2, `SELECT bal FROM acct WHERE id = 3`).Rows[0][0].Int(); got != 101 {
		t.Fatalf("bal = %d, want first committer's 101", got)
	}

	// Delete/update collision conflicts the same way.
	mustExecSpill(t, s1, `BEGIN`)
	mustExecSpill(t, s2, `BEGIN`)
	mustExecSpill(t, s1, `DELETE FROM acct WHERE id = 5`)
	mustExecSpill(t, s2, `UPDATE acct SET bal = -1 WHERE id = 5`)
	mustExecSpill(t, s2, `COMMIT`)
	if _, err := s1.Execute(`COMMIT`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("delete vs committed update: err = %v, want ErrWriteConflict", err)
	}

	// Disjoint rows never conflict.
	mustExecSpill(t, s1, `BEGIN`)
	mustExecSpill(t, s2, `BEGIN`)
	mustExecSpill(t, s1, `UPDATE acct SET bal = bal + 1 WHERE id = 7`)
	mustExecSpill(t, s2, `UPDATE acct SET bal = bal + 1 WHERE id = 8`)
	mustExecSpill(t, s1, `COMMIT`)
	mustExecSpill(t, s2, `COMMIT`)

	if st := db.Store().MVCCStatus(); st.WriteConflicts != 2 {
		t.Fatalf("write_conflicts = %d, want 2", st.WriteConflicts)
	}
	if st := db.Store().MVCCStatus(); st.Pins != 0 {
		t.Fatalf("pins = %d, want 0", st.Pins)
	}
}

// TestSnapshotReadMidStream pins the tentpole's reader guarantee: a statement
// streams exactly the rows visible at its own start, however many writers
// commit while it drains — and without blocking them.
func TestSnapshotReadMidStream(t *testing.T) {
	db, s := txnDB(t)
	writer := db.NewSession()
	defer writer.Close()

	rows, err := s.Query(`SELECT id, bal FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	// Pull a couple of rows, then wipe the table from another session: the
	// delete must neither block on the open cursor nor change its output.
	for i := 0; i < 2; i++ {
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
	}
	mustExecSpill(t, writer, `DELETE FROM acct`)
	n := 2
	for {
		row, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		if row[1].Int() != 100 {
			t.Fatalf("mid-stream row mutated: %v", row)
		}
		n++
	}
	if n != 16 {
		t.Fatalf("snapshot stream delivered %d rows, want all 16 from its snapshot", n)
	}
	if got := mustExecSpill(t, s, `SELECT count(*) FROM acct`).Rows[0][0].Int(); got != 0 {
		t.Fatalf("next statement sees %d rows, want the committed 0", got)
	}
	if st := db.Store().MVCCStatus(); st.Pins != 0 {
		t.Fatalf("pins after drain = %d, want 0", st.Pins)
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE v (a int)`)
	mustExecSpill(t, s, `INSERT INTO v VALUES (0)`)
	for i := 0; i < 40; i++ {
		mustExecSpill(t, s, `UPDATE v SET a = a + 1`)
	}
	before := db.Store().MVCCStatus()
	if before.Versions < 41 {
		t.Fatalf("versions before vacuum = %d, want the full update chain (>= 41)", before.Versions)
	}
	removed := db.Store().Vacuum()
	after := db.Store().MVCCStatus()
	if after.Versions != 1 || after.Slots != 1 {
		t.Fatalf("after vacuum: versions=%d slots=%d, want 1/1", after.Versions, after.Slots)
	}
	if removed != before.Versions-after.Versions {
		t.Fatalf("vacuum reported %d removed, want %d", removed, before.Versions-after.Versions)
	}
	if got := mustExecSpill(t, s, `SELECT a FROM v`).Rows[0][0].Int(); got != 40 {
		t.Fatalf("live value after vacuum = %d, want 40", got)
	}

	// A pinned snapshot holds its versions: vacuum must not reclaim under it.
	rows, err := s.Query(`SELECT a FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	mustExecSpill(t, db.NewSession(), `UPDATE v SET a = -1`)
	if db.Store().Vacuum() != 0 {
		t.Fatal("vacuum reclaimed versions under a pinned snapshot")
	}
	row, err := rows.Next()
	if err != nil || row == nil || row[0].Int() != 40 {
		t.Fatalf("pinned read after vacuum attempt: %v %v", row, err)
	}
	rows.Close()
	if removed := db.Store().Vacuum(); removed != 1 {
		t.Fatalf("vacuum after unpin removed %d, want 1", removed)
	}
}

// TestConcurrentWriterDifferential is the seeded concurrent-writer
// differential of the issue: writers run seeded transfer transactions with
// first-committer-wins retries while readers continuously assert snapshot
// invariants, and the final table must render byte-identical to a serial
// replay of exactly the transactions that committed. Run under -race by the
// CI MVCC concurrency step.
func TestConcurrentWriterDifferential(t *testing.T) {
	db, setup := txnDB(t)
	const (
		accounts    = 16
		writers     = 4
		txPerWriter = 30
		readers     = 2
	)
	type op struct{ a, b, d int }
	var mu sync.Mutex
	var committed []op
	conflicts := 0

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			s := db.NewSession()
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Every snapshot must balance: transfers preserve the total,
				// so any torn read (half a transaction) breaks the sum.
				res, err := s.Execute(`SELECT sum(bal), count(*) FROM acct`)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Rows[0][0].Int() != accounts*100 || res.Rows[0][1].Int() != accounts {
					t.Errorf("reader %d: torn snapshot sum=%d count=%d", r, res.Rows[0][0].Int(), res.Rows[0][1].Int())
					return
				}
				// The provenance rewrite reads the same snapshot: each base
				// row witnesses itself, so the sum over the rewritten result
				// must balance identically.
				prov, err := s.Execute(`SELECT PROVENANCE id, bal FROM acct`)
				if err != nil {
					t.Errorf("reader %d provenance: %v", r, err)
					return
				}
				total := int64(0)
				for _, row := range prov.Rows {
					total += row[1].Int()
				}
				if len(prov.Rows) != accounts || total != accounts*100 {
					t.Errorf("reader %d: torn provenance snapshot sum=%d rows=%d", r, total, len(prov.Rows))
					return
				}
			}
		}(r)
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			s := db.NewSession()
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < txPerWriter; i++ {
				a := rng.Intn(accounts)
				b := (a + 1 + rng.Intn(accounts-1)) % accounts
				d := 1 + rng.Intn(5)
				for {
					if _, err := s.Execute(`BEGIN`); err != nil {
						t.Errorf("writer %d BEGIN: %v", w, err)
						return
					}
					if _, err := s.Execute(fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, d, a)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					if _, err := s.Execute(fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, d, b)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
					_, err := s.Execute(`COMMIT`)
					if err == nil {
						mu.Lock()
						committed = append(committed, op{a: a, b: b, d: d})
						mu.Unlock()
						break
					}
					// The ONLY admissible commit failure is the typed
					// conflict; anything else is a bug surfacing.
					if !errors.Is(err, ErrWriteConflict) {
						t.Errorf("writer %d COMMIT: %v (not a write conflict)", w, err)
						return
					}
					mu.Lock()
					conflicts++
					mu.Unlock()
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if t.Failed() {
		return
	}

	// Serial replay: a fresh database runs exactly the committed transfers,
	// one by one. The concurrent schedule must be indistinguishable from it.
	replayDB := NewDB()
	replay := replayDB.NewSession()
	defer replay.Close()
	mustExecSpill(t, replay, `CREATE TABLE acct (id int, bal int)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO acct VALUES `)
	for i := 0; i < accounts; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 100)", i)
	}
	mustExecSpill(t, replay, b.String())
	for _, o := range committed {
		mustExecSpill(t, replay, fmt.Sprintf(`UPDATE acct SET bal = bal - %d WHERE id = %d`, o.d, o.a))
		mustExecSpill(t, replay, fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, o.d, o.b))
	}
	const q = `SELECT id, bal FROM acct ORDER BY id`
	got := renderFull(mustExecSpill(t, setup, q))
	want := renderFull(mustExecSpill(t, replay, q))
	if got != want {
		t.Fatalf("concurrent state diverges from serial replay of committed transactions:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if len(committed) != writers*txPerWriter {
		t.Fatalf("committed %d transactions, want %d", len(committed), writers*txPerWriter)
	}
	if st := db.Store().MVCCStatus(); st.Pins != 0 {
		t.Fatalf("pins after differential = %d, want 0", st.Pins)
	}
	t.Logf("committed=%d conflicts=%d (retried)", len(committed), conflicts)
}

// BenchmarkSnapshotReadUnderWrites measures reader latency while a writer
// commits continuously — the workload the retired global write gate
// serialized. Readers pin a snapshot and never wait on the writer; the
// number to watch against a gate-serialized baseline is the tail created by
// writer stalls, which no longer exists structurally.
func BenchmarkSnapshotReadUnderWrites(b *testing.B) {
	db, s := txnDB(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := db.NewSession()
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Execute(fmt.Sprintf(`UPDATE acct SET bal = bal + 1 WHERE id = %d`, i%16)); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Execute(`SELECT sum(bal) FROM acct`)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0][0].Int() < 16*100 {
			b.Fatalf("snapshot sum shrank: %d", res.Rows[0][0].Int())
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// BenchmarkTxnCommit prices the transaction envelope: BEGIN + one UPDATE +
// COMMIT (snapshot pin, write buffering, first-committer-wins validation,
// version stamping) against the same UPDATE in autocommit.
func BenchmarkTxnCommit(b *testing.B) {
	db, s := txnDB(b)
	_ = db
	b.Run("autocommit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustExecSpill(b, s, `UPDATE acct SET bal = bal + 1 WHERE id = 0`)
		}
	})
	b.Run("txn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustExecSpill(b, s, `BEGIN`)
			mustExecSpill(b, s, `UPDATE acct SET bal = bal + 1 WHERE id = 0`)
			mustExecSpill(b, s, `COMMIT`)
		}
	})
}

// BenchmarkVacuum prices one vacuum pass over a table whose slots each carry
// a dead version chain — the steady-state cost the background vacuum pays.
func BenchmarkVacuum(b *testing.B) {
	db, s := txnDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 8; j++ {
			mustExecSpill(b, s, `UPDATE acct SET bal = bal + 1`)
		}
		b.StartTimer()
		db.Store().Vacuum()
	}
}
