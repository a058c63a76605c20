package engine

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Spill-to-disk coverage at the engine layer: the external sort keeps equal
// keys in input order, work_mem is set and shown, and closing a session
// removes the spill files of a stream it abandoned. The result differential
// over every work_mem is the result matrix's (matrix_test.go).

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
