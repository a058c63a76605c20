package engine

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Spill-to-disk coverage at the engine layer: every blocking operator must
// produce byte-identical results with work_mem forced far below its input
// size, spill files must actually be created, and every temp file must be
// gone when the query (or session) ends.

// tinyWorkMem forces every blocking operator over budget immediately (the
// per-operator floors still guarantee forward progress).
const tinyWorkMem = 4096

// seedSpillDB builds a database whose blocking-operator inputs dwarf
// tinyWorkMem: rows with heavily duplicated keys (exercising group merges
// and stability) and distinct payloads.
func seedSpillDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE big (k int, v int, s text)`)
	mustExecSpill(t, s, `CREATE TABLE other (k int, v int, s text)`)
	rng := rand.New(rand.NewSource(7))
	insertBatch := func(table string, n, off int) {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, 'payload %d')", rng.Intn(50), i+off, (i+off)%97)
		}
		mustExecSpill(t, s, b.String())
	}
	for off := 0; off < rows; off += 1000 {
		n := rows - off
		if n > 1000 {
			n = 1000
		}
		insertBatch("big", n, off)
		insertBatch("other", n/2, off)
	}
	return db
}

func mustExecSpill(t testing.TB, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return res
}

// renderFull flattens a result including column names, so schema divergence
// is caught too.
func renderFull(res *Result) string {
	return strings.Join(res.Columns, "|") + "\n" + renderRows(res)
}

// spillSuite is the blocking-operator battery the in-memory and forced-spill
// paths must answer identically — including the queries WITHOUT an ORDER BY,
// which pin the order-preservation contract of the spill paths.
var spillSuite = []string{
	`SELECT k, v, s FROM big ORDER BY k, v DESC`,
	`SELECT k, v FROM big ORDER BY s DESC, v`,
	`SELECT k FROM big ORDER BY k`, // duplicate keys: stability visible via row multiplicity
	`SELECT k, count(*), sum(v), min(s), max(v) FROM big GROUP BY k`,
	`SELECT k, count(*), sum(v) FROM big GROUP BY k ORDER BY k`,
	`SELECT v % 701, count(DISTINCT s), avg(v) FROM big GROUP BY v % 701`,
	`SELECT count(*), count(DISTINCT k) FROM big`,
	`SELECT DISTINCT k, s FROM big`,
	`SELECT DISTINCT v % 83 FROM big`,
	`SELECT k, s FROM big INTERSECT SELECT k, s FROM other`,
	`SELECT k, v, s FROM big INTERSECT ALL SELECT k, v, s FROM other`,
	`SELECT k, s FROM big EXCEPT SELECT k, s FROM other`,
	`SELECT k, s FROM big EXCEPT ALL SELECT k, s FROM other`,
	`SELECT k, s FROM big UNION SELECT k, s FROM other`,
	`SELECT k FROM big UNION SELECT k FROM other ORDER BY k`,
	// the provenance join-back α(T) ⟕ T⁺, commuted to build on the groups:
	// a grace RIGHT join that emits through the projection above it
	`SELECT PROVENANCE v % 701, count(*), sum(v) FROM big GROUP BY v % 701`,
}

// TestSpillDifferential runs the battery under the default (generous) budget
// and under tinyWorkMem and requires byte-identical results, that the tiny
// session really spilled, and that no temp file outlives its query.
func TestSpillDifferential(t *testing.T) {
	db := seedSpillDB(t, 4000)
	wide := db.NewSession()
	defer wide.Close()
	tiny := db.NewSession()
	defer tiny.Close()
	dir := t.TempDir()
	tiny.SetTempDir(dir)
	mustExecSpill(t, tiny, fmt.Sprintf(`SET work_mem = %d`, tinyWorkMem))

	for _, q := range spillSuite {
		want := renderFull(mustExecSpill(t, wide, q))
		got := renderFull(mustExecSpill(t, tiny, q))
		if got != want {
			t.Fatalf("forced-spill result diverged on %q:\nwant:\n%.2000s\ngot:\n%.2000s", q, want, got)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("%q left %d files in temp dir (err %v)", q, len(ents), err)
		}
	}
	ms := tiny.MemStatus()
	if ms.SpillFiles == 0 || ms.SpillBytes == 0 {
		t.Fatalf("tiny session never spilled: %+v", ms)
	}
	if ws := wide.MemStatus(); ws.SpillFiles != 0 {
		t.Fatalf("wide session spilled: %+v", ws)
	}
	if ms.Tracked != 0 {
		t.Fatalf("tracked memory leaked: %d bytes after all queries drained", ms.Tracked)
	}
}

// TestSpillSortStability pins the external sort's sort.SliceStable contract:
// rows with equal keys must surface in input order, across run boundaries,
// exactly as the in-memory path orders them.
func TestSpillSortStability(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE dup (k int, seq int)`)
	// Many duplicates per key, inserted in ascending seq order across
	// several batches, so spill runs split key groups mid-way.
	var b strings.Builder
	seq := 0
	for batch := 0; batch < 4; batch++ {
		b.Reset()
		b.WriteString(`INSERT INTO dup VALUES `)
		for i := 0; i < 1500; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", seq%7, seq)
			seq++
		}
		mustExecSpill(t, s, b.String())
	}

	const q = `SELECT k, seq FROM dup ORDER BY k`
	want := renderFull(mustExecSpill(t, s, q))

	tiny := db.NewSession()
	defer tiny.Close()
	mustExecSpill(t, tiny, fmt.Sprintf(`SET work_mem = %d`, tinyWorkMem))
	got := renderFull(mustExecSpill(t, tiny, q))
	if got != want {
		t.Fatalf("external sort broke stability:\nwant:\n%.2000s\ngot:\n%.2000s", want, got)
	}
	if ms := tiny.MemStatus(); ms.SpillFiles == 0 {
		t.Fatalf("sort did not spill: %+v", ms)
	}

	// Within each key, seq must ascend — the direct statement of stability.
	res := mustExecSpill(t, tiny, q)
	lastSeq := map[int64]int64{}
	for _, row := range res.Rows {
		k, sq := row[0].Int(), row[1].Int()
		if prev, ok := lastSeq[k]; ok && sq < prev {
			t.Fatalf("key %d: seq %d after %d (input order lost)", k, sq, prev)
		}
		lastSeq[k] = sq
	}
}

// TestWorkMemSetting covers the SET/SHOW surface: validation, the
// memory_status columns, and programmatic SetWorkMem.
func TestWorkMemSetting(t *testing.T) {
	db := NewDB()
	s := db.NewSession()
	defer s.Close()

	if v := s.Setting("work_mem"); v != fmt.Sprint(DefaultWorkMem) {
		t.Fatalf("default work_mem = %q", v)
	}
	mustExecSpill(t, s, `SET work_mem = 123456`)
	if got := s.MemStatus().WorkMem; got != 123456 {
		t.Fatalf("budget after SET = %d", got)
	}
	for _, bad := range []string{`SET work_mem = -5`, `SET work_mem = banana`} {
		if _, err := s.Execute(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	res := mustExecSpill(t, s, `SHOW memory_status`)
	wantCols := "work_mem|tracked|peak|spill_files|spill_bytes|temp_dir|idle_slab_bytes|idle_slabs"
	if got := strings.Join(res.Columns, "|"); got != wantCols {
		t.Fatalf("memory_status columns = %q", got)
	}
	if res.Rows[0][0].Int() != 123456 {
		t.Fatalf("memory_status work_mem = %v", res.Rows[0][0])
	}

	s.SetWorkMem(0)
	if got := s.MemStatus().WorkMem; got != 0 {
		t.Fatalf("budget after SetWorkMem(0) = %d", got)
	}
	if v := s.Setting("work_mem"); v != "0" {
		t.Fatalf("setting after SetWorkMem(0) = %q", v)
	}
}

// TestSpillCleanupOnSessionClose abandons a spilling stream mid-read and
// closes the session: Close must remove the stream's spill files.
func TestSpillCleanupOnSessionClose(t *testing.T) {
	db := seedSpillDB(t, 4000)
	s := db.NewSession()
	dir := t.TempDir()
	s.SetTempDir(dir)
	mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, tinyWorkMem))

	rows, err := s.Query(`SELECT k, v, s FROM big ORDER BY s, v`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil { // the sort has spilled and merged its first row
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("expected live spill files mid-stream, got %d (err %v)", len(ents), err)
	}
	// No rows.Close(): the session teardown alone must clean up.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err = os.ReadDir(dir)
	if err != nil || len(ents) != 0 {
		t.Fatalf("session close left %d spill files (err %v)", len(ents), err)
	}
}

// TestSpill100kProvenance is the acceptance bar of the spill subsystem: with
// work_mem far below the input size, ORDER BY, GROUP BY and INTERSECT over a
// 100k-row provenance-rewritten input must complete, stay within ~2x the
// budget in peak tracked memory, and produce byte-identical output to the
// in-memory path.
func TestSpill100kProvenance(t *testing.T) {
	rows := 100_000
	if testing.Short() {
		rows = 20_000
	}
	db := seedSpillDB(t, rows)
	wide := db.NewSession()
	defer wide.Close()
	tiny := db.NewSession()
	defer tiny.Close()
	const budget = 256 << 10
	mustExecSpill(t, tiny, fmt.Sprintf(`SET work_mem = %d`, budget))

	for _, q := range []string{
		`SELECT PROVENANCE k, v, s FROM big ORDER BY v DESC, k`,
		`SELECT PROVENANCE k, count(*), sum(v), count(DISTINCT s) FROM big GROUP BY k`,
		`SELECT PROVENANCE k, s FROM big INTERSECT SELECT k, s FROM other`,
	} {
		want := renderFull(mustExecSpill(t, wide, q))
		got := renderFull(mustExecSpill(t, tiny, q))
		if got != want {
			t.Fatalf("100k forced-spill diverged on %q", q)
		}
	}
	ms := tiny.MemStatus()
	if ms.SpillFiles == 0 {
		t.Fatalf("100k run never spilled: %+v", ms)
	}
	// "~2x the budget": one over-budget detection quantum of slack on top of
	// the budget itself.
	if ms.Peak > 2*budget {
		t.Fatalf("peak tracked memory %d exceeds 2x budget (%d)", ms.Peak, 2*budget)
	}
	t.Logf("100k spill: peak=%d (budget %d), spill files=%d, spill bytes=%d", ms.Peak, budget, ms.SpillFiles, ms.SpillBytes)
}
