package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/executor"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/wal"
)

// The pruning suite: a scan directly under a Select skips the 512-slot heap
// chunks whose per-column INT zones cannot hold a row the Select accepts.
// Every test here compares what a pruning scan returns with what the rows
// say, over tables of several chunks.

// pruneRows is the number of rows the suite's tables hold: five chunks.
const pruneRows = 2300

// loadPruneTable creates t(id int, v int, s text) holding one row per id,
// in the order given, with v = id % 97 and s the id as text.
func loadPruneTable(t *testing.T, s *Session, ids []int64) {
	t.Helper()
	mustExecSpill(t, s, `CREATE TABLE t (id int, v int, s text)`)
	for lo := 0; lo < len(ids); lo += 500 {
		var b strings.Builder
		b.WriteString(`INSERT INTO t VALUES `)
		for i, id := range ids[lo:min(lo+500, len(ids))] {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, '%d')", id, id%97, id)
		}
		mustExecSpill(t, s, b.String())
	}
}

// pruneOrders are the key orders the suite loads: the one a zone serves
// best, its mirror, and one no zone can help.
func pruneOrders() map[string][]int64 {
	in := make([]int64, pruneRows)
	for i := range in {
		in[i] = int64(i)
	}
	rev := make([]int64, pruneRows)
	for i := range rev {
		rev[i] = in[pruneRows-1-i]
	}
	shuf := append([]int64(nil), in...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	return map[string][]int64{"in order": in, "reversed": rev, "shuffled": shuf}
}

// pruneTerm is one random conjunct: an INT column compared with a constant
// or a parameter, written either way round.
type pruneTerm struct {
	col     int // 0 = id, 1 = v
	op      string
	val     value.Value
	param   bool
	colLeft bool
}

func (p pruneTerm) sql() string {
	other := p.val.SQLLiteral()
	if p.param {
		other = "?"
	}
	name := [...]string{"id", "v"}[p.col]
	if p.colLeft {
		return name + " " + p.op + " " + other
	}
	return other + " " + p.op + " " + name
}

// holds evaluates the conjunct on row in Go, with SQL's comparison rules.
func (p pruneTerm) holds(row value.Row) bool {
	l, r := row[p.col], p.val
	if !p.colLeft {
		l, r = r, l
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	c, err := value.Compare(l, r)
	if err != nil {
		panic(err)
	}
	switch p.op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

func randomPruneTerm(rng *rand.Rand) pruneTerm {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	p := pruneTerm{col: rng.Intn(2), op: ops[rng.Intn(len(ops))], param: rng.Intn(3) == 0, colLeft: rng.Intn(2) == 0}
	switch k := rng.Intn(10); {
	case k == 0:
		p.val = value.Null
	case k < 3:
		p.val = value.NewFloat(float64(rng.Intn(pruneRows+200)-100) + []float64{0, 0.5, -0.25}[rng.Intn(3)])
	default:
		p.val = value.NewInt(int64(rng.Intn(pruneRows+200) - 100))
	}
	if p.col == 1 && !p.val.IsNull() {
		p.val = value.NewInt(p.val.Int() % 110)
	}
	return p
}

// renderPruned renders rows the way renderRows does.
func renderPruned(rows []value.Row) string {
	return renderRows(&Result{Rows: rows})
}

// TestScanPruningMatchesTheRows: random INT predicates over tables of five
// chunks, keys in order, reversed and shuffled, return what a Go filter of
// the table's rows returns, in slot order — with literals and with `?`
// arguments. A point read over keys in order reads one chunk.
func TestScanPruningMatchesTheRows(t *testing.T) {
	for name, ids := range pruneOrders() {
		t.Run(name, func(t *testing.T) {
			db := NewDB()
			s := db.NewSession()
			defer s.Close()
			loadPruneTable(t, s, ids)
			all := db.Store().Table("t").Snapshot()
			rng := rand.New(rand.NewSource(int64(len(name))))
			for i := 0; i < 300; i++ {
				terms := make([]pruneTerm, 1+rng.Intn(3))
				conds := make([]string, len(terms))
				var args []value.Value
				for j := range terms {
					terms[j] = randomPruneTerm(rng)
					conds[j] = terms[j].sql()
					if terms[j].param {
						args = append(args, terms[j].val)
					}
				}
				q := `SELECT id, v, s FROM t WHERE ` + strings.Join(conds, " AND ")
				var want []value.Row
			rows:
				for _, r := range all {
					for _, p := range terms {
						if !p.holds(r) {
							continue rows
						}
					}
					want = append(want, r)
				}
				st, err := s.Prepare(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				res, err := st.Exec(args...)
				if err != nil {
					t.Fatalf("%s %v: %v", q, args, err)
				}
				if got, w := renderRows(res), renderPruned(want); got != w {
					t.Fatalf("%s %v:\ngot  %.300q\nwant %.300q", q, args, got, w)
				}
			}
			if name != "in order" {
				return
			}
			ex, err := s.ExplainAnalyze(parseSelect(t, `SELECT id, s FROM t WHERE id = 1234`))
			if err != nil {
				t.Fatal(err)
			}
			chunks, skipped := scanChunks(ex)
			if chunks != 5 || skipped != 4 {
				t.Fatalf("point read over keys in order: %d chunks, %d skipped, want 5 and 4:\n%s", chunks, skipped, ex.AnalyzedTree)
			}
		})
	}
}

// scanChunks sums the chunk counters of an analyzed statement's scans.
func scanChunks(ex *Explanation) (chunks, skipped int64) {
	ex.Stats.Walk(func(n *executor.OpStats) {
		chunks += n.Chunks
		skipped += n.ChunksSkipped
	})
	return chunks, skipped
}

// TestScanPruningSeesTheTransactionsWrites: a transaction's buffered update
// images are in no chunk's zone, so its own scans skip nothing while it has
// any; its updated key is found where no zone would place it. Its buffered
// inserts follow the heap's slots, and skipping never reaches past them.
func TestScanPruningSeesTheTransactionsWrites(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	loadPruneTable(t, s, pruneOrders()["in order"])
	mustExecSpill(t, s, `BEGIN`)
	mustExecSpill(t, s, `UPDATE t SET id = 9999 WHERE id = 1`)
	if got := renderRows(mustExecSpill(t, s, `SELECT id, v, s FROM t WHERE id = 9999`)); got != "9999|1|1" {
		t.Fatalf("the transaction's own update: got %q", got)
	}
	if got := renderRows(mustExecSpill(t, s, `SELECT id FROM t WHERE id = 1`)); got != "" {
		t.Fatalf("the key the transaction moved away: got %q", got)
	}
	mustExecSpill(t, s, `INSERT INTO t VALUES (-7, 0, 'new')`)
	if got := renderRows(mustExecSpill(t, s, `SELECT id, s FROM t WHERE id < 0`)); got != "-7|new" {
		t.Fatalf("the transaction's own insert: got %q", got)
	}
	mustExecSpill(t, s, `COMMIT`)
	if got := renderRows(mustExecSpill(t, s, `SELECT id, v FROM t WHERE id >= 9999 OR id < 0`)); got != "9999|1\n-7|0" {
		t.Fatalf("after COMMIT: got %q", got)
	}
	if got := renderRows(mustExecSpill(t, s, `SELECT id, v FROM t WHERE id = 9999`)); got != "9999|1" {
		t.Fatalf("after COMMIT, pruned: got %q", got)
	}
	// With inserts alone buffered, chunks are skipped — all of them here,
	// the last one partly full — and the inserted rows still follow.
	mustExecSpill(t, s, `BEGIN`)
	mustExecSpill(t, s, `INSERT INTO t VALUES (50000, 2, 'far')`)
	if got := renderRows(mustExecSpill(t, s, `SELECT id, s FROM t WHERE id = 50000`)); got != "50000|far" {
		t.Fatalf("a buffered insert past every chunk's zone: got %q", got)
	}
	mustExecSpill(t, s, `ROLLBACK`)
}

// TestScanPruningOldSnapshot: an UPDATE that moves a key out of its chunk's
// range, and one that moves the table's largest key into the first chunk's,
// leave a transaction that began before them reading the old keys where they
// were — before and after a vacuum compacts the heap the versions live in,
// when only an older version of a slot holds its chunk's largest key — while
// new readers find the new keys.
func TestScanPruningOldSnapshot(t *testing.T) {
	db := NewDB()
	old, writer := db.NewSession(), db.NewSession()
	defer old.Close()
	defer writer.Close()
	loadPruneTable(t, writer, pruneOrders()["in order"])
	// Dead before the old snapshot: the vacuum below drops these slots and
	// publishes a compacted heap while that snapshot is pinned.
	mustExecSpill(t, writer, `DELETE FROM t WHERE id % 10 = 3`)
	mustExecSpill(t, old, `BEGIN`)
	mustExecSpill(t, old, `SELECT count(*) FROM t`)
	mustExecSpill(t, writer, `UPDATE t SET id = 1000000 WHERE id = 10`)
	mustExecSpill(t, writer, `UPDATE t SET id = 10 WHERE id = 2299`)
	check := func(when string) {
		t.Helper()
		for q, want := range map[string]string{
			`SELECT id, v FROM t WHERE id = 10`:       "10|10",
			`SELECT id, v FROM t WHERE id = 2299`:     "2299|68",
			`SELECT id, v FROM t WHERE id > 999999`:   "",
			`SELECT id, v FROM t WHERE id <= 12.5`:    "0|0\n1|1\n2|2\n4|4\n5|5\n6|6\n7|7\n8|8\n9|9\n10|10\n11|11\n12|12",
			`SELECT count(*) FROM t WHERE id >= 2000`: "270",
		} {
			if got := renderRows(mustExecSpill(t, old, q)); got != want {
				t.Fatalf("%s, old snapshot: %s = %q, want %q", when, q, got, want)
			}
		}
		for q, want := range map[string]string{
			`SELECT id, v FROM t WHERE id = 10`:     "10|68",
			`SELECT id, v FROM t WHERE id = 2299`:   "",
			`SELECT id, v FROM t WHERE id > 999999`: "1000000|10",
		} {
			if got := renderRows(mustExecSpill(t, writer, q)); got != want {
				t.Fatalf("%s, new snapshot: %s = %q, want %q", when, q, got, want)
			}
		}
	}
	check("before the vacuum")
	if n := db.Store().Vacuum(); n == 0 {
		t.Fatal("the vacuum removed nothing")
	}
	check("after the vacuum")
	mustExecSpill(t, old, `COMMIT`)
}

// TestScanPruningAcrossVacuum: a pruning stream suspended between rows
// yields exactly the rows its snapshot saw while other sessions update,
// delete and insert keys in its range and a vacuum compacts the heap it
// reads, serially and when the parallel leaf cuts slot ranges.
func TestScanPruningAcrossVacuum(t *testing.T) {
	for _, deg := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", deg), func(t *testing.T) {
			db := NewDB()
			s, writer := db.NewSession(), db.NewSession()
			defer s.Close()
			defer writer.Close()
			loadPruneTable(t, s, pruneOrders()["in order"])
			mustExecSpill(t, s, `DELETE FROM t WHERE id % 10 = 3`)
			mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
			mustExecSpill(t, s, `SET trace = on`)
			const q = `SELECT id, v FROM t WHERE id >= 600 AND id < 1900`
			want := renderRows(mustExecSpill(t, s, q))
			rows, err := s.QueryBorrowed(q)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for i := 0; ; i++ {
				row, err := rows.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					break
				}
				got = append(got, row[0].String()+"|"+row[1].String())
				if i%300 != 0 {
					continue
				}
				k := 600 + 3*i
				mustExecSpill(t, writer, fmt.Sprintf(`UPDATE t SET id = id + 5000 WHERE id = %d`, k+1))
				mustExecSpill(t, writer, fmt.Sprintf(`UPDATE t SET id = %d WHERE id = %d`, k+2, 2250-i/100))
				mustExecSpill(t, writer, fmt.Sprintf(`DELETE FROM t WHERE id = %d`, k+4))
				mustExecSpill(t, writer, fmt.Sprintf(`INSERT INTO t VALUES (%d, -1, 'new')`, 700+i))
				db.Store().Vacuum()
			}
			rows.Close()
			if strings.Join(got, "\n") != want {
				t.Fatalf("the suspended stream diverged from its snapshot:\nwant %.300s\ngot  %.300s", want, strings.Join(got, "\n"))
			}
			if tr := s.LastTrace(); deg > 1 && tr.ParallelOps == 0 {
				t.Fatalf("parallelism %d did not fan the scan out", deg)
			}
			// And a fresh read, pruned, equals the table's rows filtered in Go.
			var fresh []value.Row
			for _, r := range db.Store().Table("t").Snapshot() {
				if id := r[0].Int(); id >= 600 && id < 1900 {
					fresh = append(fresh, r[:2])
				}
			}
			if got, want := renderRows(mustExecSpill(t, s, q)), renderPruned(fresh); got != want {
				t.Fatalf("after the writes:\ngot  %.300s\nwant %.300s", got, want)
			}
		})
	}
}

// TestScanPruningReplicaAndRecovery: zones are neither logged nor saved, so
// a replica that applied the primary's change records and a store recovered
// from its WAL build their own, and every pruned query answers the same on
// all three.
func TestScanPruningReplicaAndRecovery(t *testing.T) {
	dir := t.TempDir()
	store, mgr, _, err := wal.Open(dir, wal.Options{Sync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	store.Log().SetRetentionBytes(0)
	primary := NewDBFrom(store)
	s := primary.NewSession()
	loadPruneTable(t, s, pruneOrders()["shuffled"])
	mustExecSpill(t, s, `UPDATE t SET id = id + 10000 WHERE id % 7 = 0`)
	mustExecSpill(t, s, `DELETE FROM t WHERE id % 5 = 1`)
	primary.Store().Vacuum()
	mustExecSpill(t, s, `UPDATE t SET id = -id WHERE id > 2000 AND id < 2100`)
	mustExecSpill(t, s, `INSERT INTO t VALUES (5, 5, 'again'), (40000, 1, 'far')`)

	replica := storage.NewStore()
	recs, ok := store.Log().Since(0, 0)
	if !ok {
		t.Fatal("primary log trimmed")
	}
	for _, rec := range recs {
		if err := replica.ApplyChange(rec); err != nil {
			t.Fatalf("apply LSN %d: %v", rec.LSN, err)
		}
	}
	queries := []string{
		`SELECT id, v, s FROM t WHERE id = 5`,
		`SELECT id, v FROM t WHERE id >= 10000 AND id < 10500`,
		`SELECT id, v FROM t WHERE id < 0`,
		`SELECT id, s FROM t WHERE 2099.5 > id AND v = 3`,
		`SELECT count(*) FROM t WHERE id > 30000`,
	}
	answers := func(db *DB) []string {
		s := db.NewSession()
		defer s.Close()
		var out []string
		for _, q := range queries {
			out = append(out, renderRows(mustExecSpill(t, s, q)))
		}
		return out
	}
	want := answers(primary)
	s.Close()
	if got := answers(NewDBFrom(replica)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica:\ngot  %q\nwant %q", got, want)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, mgr2, _, err := wal.Open(dir, wal.Options{Sync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	if got := answers(NewDBFrom(recovered)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered from the WAL:\ngot  %q\nwant %q", got, want)
	}
}

// TestScanPruningKeepsErrors: a conjunct that can fail keeps every chunk in
// the scan, so the statement fails as it does without zones, whether or not
// some chunk could hold the INT key beside it.
func TestScanPruningKeepsErrors(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	loadPruneTable(t, s, pruneOrders()["in order"])
	for _, q := range []string{
		`SELECT id FROM t WHERE s > 3 AND id = 5`,
		`SELECT id FROM t WHERE s > 3 AND id = 99999`,
		`SELECT id FROM t WHERE id = 2100 AND s > 3`,
		`SELECT id FROM t WHERE id = 2100 AND v / 0 = 1`,
	} {
		_, err := s.Execute(q)
		if err == nil {
			t.Fatalf("%s succeeded", q)
		}
		mustExecSpill(t, s, `SET optimizer = off`)
		_, want := s.Execute(q)
		mustExecSpill(t, s, `SET optimizer = on`)
		if want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: %v, without the optimizer %v", q, err, want)
		}
	}
	// A parameter bound to a kind an INT does not compare with fails too.
	st, err := s.Prepare(`SELECT id FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(value.NewString("x")); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Fatalf("id = 'x' as an argument: %v", err)
	}
	if res, err := st.Exec(value.NewFloat(math.NaN())); err != nil || len(res.Rows) != 0 {
		t.Fatalf("id = NaN: %v, %v", res, err)
	}
}

// TestScanPruningDML: an UPDATE's or a DELETE's row-id scan under `id = ?`
// or `id >= ? AND id < ?` skips chunks like a SELECT's, and every statement
// leaves the table as the same statement written so that nothing fuses
// (`id + 0`) does, with the same count or the same error: in autocommit;
// inside a transaction, after its own INSERT and after its own UPDATE of the
// table; after a vacuum; and with `?` bound to a kind an INT does not compare
// with. Over keys in order, the autocommit statements read 1 of the 5
// chunks, and nothing is skipped while the transaction has updates buffered.
func TestScanPruningDML(t *testing.T) {
	const (
		upd = `UPDATE t SET v = v + 1000, s = 'u' WHERE %s = ?`
		mov = `UPDATE t SET id = ? WHERE %s = ?`
		del = `DELETE FROM t WHERE %[1]s >= ? AND %[1]s < ?`
	)
	type step struct {
		sql  string // a statement with %s for the key, another statement, or "vacuum"
		args []int64
		str  bool // bind the arguments as TEXT
		// read is how many chunks of 5 the row-id scan of a statement with a
		// key reads over keys in order (-1: not checked).
		read int
	}
	steps := []step{
		{sql: upd, args: []int64{1234}, read: 1},
		{sql: del, args: []int64{100, 140}, read: 1},
		{sql: upd, args: []int64{99999}, read: 0},
		{sql: `BEGIN`},
		{sql: `INSERT INTO t VALUES (5000, 1, 'mine'), (-3, 2, 'mine'), (-2, 3, 'mine')`},
		{sql: upd, args: []int64{5000}, read: 0},
		{sql: del, args: []int64{-3, -2}, read: 0},
		{sql: mov, args: []int64{7777, 1700}, read: 1},
		{sql: upd, args: []int64{7777}, read: 5},
		{sql: upd, args: []int64{-2}, read: 5},
		{sql: del, args: []int64{300, 320}, read: 5},
		{sql: `COMMIT`},
		{sql: "vacuum"},
		{sql: upd, args: []int64{1800}, read: -1},
		{sql: del, args: []int64{2000, 2010}, read: -1},
		{sql: upd, args: []int64{7}, str: true, read: -1},
		{sql: del, args: []int64{1, 9}, str: true, read: -1},
		{sql: `BEGIN`},
		{sql: upd, args: []int64{8}, str: true, read: -1},
		{sql: `ROLLBACK`},
	}
	for name, ids := range pruneOrders() {
		t.Run(name, func(t *testing.T) {
			var dbs [2]*DB
			var sess [2]*Session
			for i := range dbs {
				dbs[i] = NewDB()
				sess[i] = dbs[i].NewSession()
				defer sess[i].Close()
				loadPruneTable(t, sess[i], ids)
				mustExecSpill(t, sess[i], `SET trace = on`)
			}
			for k, st := range steps {
				if st.sql == "vacuum" {
					for _, db := range dbs {
						if db.Store().Vacuum() == 0 {
							t.Fatal("the vacuum removed nothing")
						}
					}
					continue
				}
				var args []value.Value
				for _, a := range st.args {
					if st.str {
						args = append(args, value.NewString(fmt.Sprint(a)))
					} else {
						args = append(args, value.NewInt(a))
					}
				}
				dml := strings.Contains(st.sql, "%")
				var out [2]string
				for i, key := range []string{"id", "id + 0"} {
					q := st.sql
					if dml {
						q = fmt.Sprintf(q, key)
					}
					res, err := prepareExec(sess[i], q, args)
					if out[i] = fmt.Sprint(err); err == nil {
						out[i] = res.Tag
					}
				}
				if out[0] != out[1] || st.str != strings.Contains(out[0], "cannot compare") {
					t.Fatalf("step %d %s %v: %q, unfused %q", k, st.sql, st.args, out[0], out[1])
				}
				if name == "in order" && dml && st.read >= 0 {
					chunks, skipped := rowIDScanChunks(t, sess[0])
					if chunks != 5 || chunks-skipped != int64(st.read) {
						t.Fatalf("step %d %s %v: the row-id scan read %d of %d chunks, want %d of 5", k, st.sql, st.args, chunks-skipped, chunks, st.read)
					}
				}
				const all = `SELECT id, v, s FROM t`
				if got, want := renderRows(mustExecSpill(t, sess[0], all)), renderRows(mustExecSpill(t, sess[1], all)); got != want {
					t.Fatalf("step %d %s %v: the table diverged from the unfused statements':\ngot  %.300q\nwant %.300q", k, st.sql, st.args, got, want)
				}
			}
		})
	}
}

// prepareExec prepares q and runs it with args.
func prepareExec(s *Session, q string, args []value.Value) (*Result, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Exec(args...)
}

// rowIDScanChunks returns the chunk counters of the row-id scan in the
// session's last traced statement.
func rowIDScanChunks(t *testing.T, s *Session) (chunks, skipped int64) {
	t.Helper()
	found := false
	s.LastTrace().Stats.Walk(func(n *executor.OpStats) {
		if sc, ok := n.Op.(*algebra.Scan); ok && sc.RowID {
			chunks, skipped, found = n.Chunks, n.ChunksSkipped, true
		}
	})
	if !found {
		t.Fatalf("the last trace (%s) has no row-id scan", s.LastTrace().SQL)
	}
	return chunks, skipped
}
