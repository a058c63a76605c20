// Package resultmatrix states the engine's result contract once, for the
// tests of the engine and of the server: however a statement runs — at any
// parallelism degree, under any work_mem, from the plan cache, in a session
// that ran other statements before it, prepared, or over the wire at any
// fetch size — it returns the bytes it returns alone in a fresh serial
// session under the default work_mem with the plan cache off, or fails with
// the same message. One corpus, one reference, one renderer and one runner
// serve every cell; a cell is one session configuration that runs the
// corpus and checks that no statement leaves a spill file or a tracked byte
// behind, and that the cell took the path it is named for.
//
// Only tests import it. The engine's tests run the configured, reused,
// plan-cached and bounded cells; the server's run the corpus along the
// paths a statement travels to a client.
package resultmatrix

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"perm/internal/engine"
	"perm/internal/value"
	"perm/internal/wire"
)

// Render flattens a result — column names, types and provenance flags,
// every value as an SQL literal, and the command tag — into a string that
// compares byte for byte.
func Render(desc wire.RowDesc, rows []value.Row, tag string) string {
	var b strings.Builder
	for i, c := range desc.Names {
		fmt.Fprintf(&b, "%s|", c)
		fmt.Fprintf(&b, "%s|%v|", desc.Kinds[i], desc.IsProv[i])
	}
	b.WriteString("\n")
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(v.SQLLiteral())
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString(tag)
	return b.String()
}

// Outcome is what the matrix compares: the result read from next to the end
// and rendered, or the error message.
func Outcome(err error, next func() (value.Row, error), desc func() (wire.RowDesc, string)) string {
	var rows []value.Row
	for err == nil {
		var row value.Row
		if row, err = next(); row == nil {
			break
		}
		rows = append(rows, row)
	}
	if se, ok := err.(*wire.ServerError); ok {
		return "ERROR: " + se.Message
	} else if err != nil {
		return "ERROR: " + err.Error()
	}
	d, tag := desc()
	return Render(d, rows, tag)
}

// Drain is the outcome of an engine stream read row by row.
func Drain(rows *engine.Rows, err error) string {
	return Outcome(err, func() (value.Row, error) { return rows.Next() },
		func() (wire.RowDesc, string) { return rowDesc(rows), rows.Tag() })
}

// rowDesc is the description the server sends for rows.
func rowDesc(rows *engine.Rows) wire.RowDesc {
	d := wire.RowDesc{Names: rows.Columns, Kinds: make([]value.Kind, len(rows.Columns)), IsProv: make([]bool, len(rows.Columns))}
	for i := 0; i < len(d.Names) && i < len(rows.Schema); i++ {
		d.Kinds[i], d.IsProv[i] = rows.Schema[i].Type, rows.Schema[i].IsProv
	}
	return d
}

// execute is the outcome of text run the way Session.Execute runs it: the
// stream drained by DrainResult.
func execute(s *engine.Session, text string) string {
	rows, err := s.Query(text)
	var res *engine.Result
	if err == nil {
		res, err = rows.DrainResult()
	}
	return Outcome(err, func() (row value.Row, _ error) {
		if len(res.Rows) > 0 {
			row, res.Rows = res.Rows[0], res.Rows[1:]
		}
		return row, nil
	}, func() (wire.RowDesc, string) { return rowDesc(rows), res.Tag })
}

// Matrix is a corpus on its database, with each statement's outcome in the
// reference and the peak tracked bytes it reached there. Grown, in a matrix
// of Growing's, is the outcomes once big and other grew tenfold.
type Matrix struct {
	DB    *engine.DB
	Stmts []Stmt
	Want  []string
	Peak  []int64
	Grown []string
}

// Reference runs each statement alone in a fresh serial session under the
// default work_mem with the plan cache off. A statement must fail there
// exactly when it is marked to; of the generated ones, at most half may.
func Reference(t *testing.T, db *engine.DB, stmts []Stmt) *Matrix {
	t.Helper()
	m := &Matrix{DB: db, Stmts: stmts, Want: make([]string, len(stmts)), Peak: make([]int64, len(stmts))}
	generated, failed := 0, 0
	for i, st := range stmts {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExec(t, s, `SET plan_cache = 'off'`)
		m.Want[i], m.Peak[i] = execute(s, st.Literal()), s.MemStatus().Peak
		s.Close()
		fails := strings.HasPrefix(m.Want[i], "ERROR: ")
		switch {
		case st.generated:
			generated++
			if fails {
				failed++
			}
		case fails != st.Fails:
			t.Fatalf("%s: the reference returned %.200s", st.Literal(), m.Want[i])
		}
	}
	if failed > generated/2 {
		t.Fatalf("%d of %d generated statements failed", failed, generated)
	}
	return m
}

// Where is the part of m whose statements keep holds.
func (m *Matrix) Where(keep func(Stmt) bool) *Matrix {
	part := &Matrix{DB: m.DB}
	for i, st := range m.Stmts {
		if keep(st) {
			part.Stmts, part.Want, part.Peak = append(part.Stmts, st), append(part.Want, m.Want[i]), append(part.Peak, m.Peak[i])
		}
	}
	return part
}

var loaded struct {
	once sync.Once
	m    *Matrix
}

// Load is the shapes and the forum's statements on a database with SpillRows
// rows in big, and their reference, made once for all the tests of a binary.
// spillGen's queries are the server's: over r1 and r2, below the fan-out
// floor, they run serially at every degree, as they do in an embedded
// session.
func Load(t *testing.T) *Matrix {
	t.Helper()
	loaded.once.Do(func() { loaded.m = Reference(t, SeedDB(t, SpillRows, nil), slices.Concat(Shapes, Paper())) })
	if loaded.m == nil {
		t.Fatal("the matrix's reference failed in an earlier test")
	}
	return loaded.m
}

// Growing is the shapes on a database with growFrom rows in big, with their
// reference there and once big and other grew tenfold, for the cells that
// grow.
func Growing(t *testing.T) *Matrix {
	t.Helper()
	m := Reference(t, SeedDB(t, growFrom, nil), Shapes)
	m.Grown = Reference(t, SeedDB(t, 10*growFrom, nil), Shapes).Want
	return m
}

// Cell is a session configuration, and how it runs a corpus: traced, it
// checks what fans out, which the configured cells do under the default
// work_mem and at degree 1 (a traced build is also the instrumented one,
// which takes no size hints and keeps its rows); reused, it runs the
// statements three times, shuffled, with interference between them, so each
// runs again on slabs it gave back and from a plan that kept its last run's
// size hints; grows, it runs a matrix of Growing's twice at each size on a
// database of its own while big and other grow tenfold and shrink back, so
// the size hints a cached plan keeps are stale in both directions; fresh,
// each statement runs in a session of its own, so a bounded shape's spills
// and peak are its own.
type Cell struct {
	WorkMem                      int64 // 0: the default
	Degree                       int
	Traced, Reused, Grows, Fresh bool
}

// String names the cell by its work_mem and degree.
func (c Cell) String() string {
	workMem := c.WorkMem
	if workMem == 0 {
		workMem = engine.DefaultWorkMem
	}
	return fmt.Sprintf("work_mem=%d/parallelism=%d", workMem, c.Degree)
}

// open starts a session in the cell's configuration, spilling into a
// directory of its own, which it returns.
func (c Cell) open(t *testing.T, db *engine.DB) (*engine.Session, string) {
	t.Helper()
	s, dir := db.NewSession(), t.TempDir()
	s.SetTempDir(dir)
	if c.WorkMem != 0 {
		s.SetWorkMem(c.WorkMem)
	}
	s.SetParallelism(c.Degree)
	if c.Traced {
		mustExec(t, s, `SET trace = on`)
	}
	return s, dir
}

// Check compares the outcome of what with the reference's, and checks that
// it left no file in dir.
func Check(t *testing.T, dir, what, want, got string) {
	t.Helper()
	if got != want {
		t.Fatalf("%s diverged from the reference:\nwant:\n%.1500s\ngot:\n%.1500s", what, want, got)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%s left %d files in temp_dir (err %v)", what, len(ents), err)
	}
}

// checkEnd checks that the session tracks no byte, that it spilled under
// TinyWorkMem, and that it did not under the default work_mem.
func (c Cell) checkEnd(t *testing.T, s *engine.Session) {
	t.Helper()
	if ms := s.MemStatus(); ms.Tracked != 0 || c.WorkMem == TinyWorkMem && ms.SpillFiles == 0 || c.WorkMem == 0 && ms.SpillFiles != 0 {
		t.Fatalf("%d tracked bytes after the last statement, %d spill files", ms.Tracked, ms.SpillFiles)
	}
}

// Run runs m's statements in the cell. Under TinyWorkMem, a statement that
// Spills must write a spill file, but in a cell that grows, whose database is
// not m's. In a fresh cell, a bounded statement must hold at least four
// times the cell's work_mem in the reference, spill, and peak within twice
// the work_mem.
func (c Cell) Run(t *testing.T, m *Matrix) {
	db, passes := m.DB, 1
	switch {
	case c.Reused:
		passes = 3
	case c.Grows:
		db, passes = SeedDB(t, growFrom, nil), 6
	}
	s, dir := c.open(t, db)
	defer func() { s.Close() }()
	rng := rand.New(rand.NewSource(c.WorkMem + int64(c.Degree)))
	for pass := range passes {
		want := m.Want
		if c.Grows {
			want = resize(t, s, pass, m)
		}
		order := rng.Perm(len(m.Stmts))
		if !c.Reused {
			slices.Sort(order)
		}
		for _, i := range order {
			st := m.Stmts[i]
			if c.Reused {
				interfere(t, s, st, strings.HasPrefix(want[i], "ERROR: "), rng)
			}
			if c.Fresh {
				c.checkEnd(t, s)
				s.Close()
				s, dir = c.open(t, db)
			}
			spilled := s.MemStatus().SpillFiles
			Check(t, dir, st.SQL, want[i], Drain(s.Query(st.SQL, st.Args...)))
			ms := s.MemStatus()
			if c.WorkMem == TinyWorkMem && st.Spills && !c.Grows && ms.SpillFiles == spilled {
				t.Fatalf("%s wrote no spill file under work_mem %d", st.SQL, c.WorkMem)
			}
			switch tr := s.LastTrace(); {
			case !c.Traced:
			case c.Degree == 1 && tr.ParallelOps != 0:
				t.Errorf("%s fanned out (%d ops) at parallelism 1", st.SQL, tr.ParallelOps)
			case c.Degree > 1 && c.WorkMem == 0 && st.FansOut && (tr.ParallelOps == 0 || tr.ParallelWorkers < int64(c.Degree)):
				t.Errorf("%s did not fan out at parallelism %d: %d ops, %d workers", st.SQL, c.Degree, tr.ParallelOps, tr.ParallelWorkers)
			}
			if c.Fresh && st.Bounded != "" && (m.Peak[i] < 4*c.WorkMem || ms.SpillFiles == 0 || ms.Peak > 2*c.WorkMem) {
				t.Fatalf("%s: peak %d bytes in the reference; at work_mem %d, %d spill files and peak %d",
					st.SQL, m.Peak[i], c.WorkMem, ms.SpillFiles, ms.Peak)
			}
		}
	}
	c.checkEnd(t, s)
	if c.Reused && s.MemStatus().IdleSlabs == 0 {
		t.Fatal("the session kept no slab for the next statement")
	}
	if hits, _, _ := s.PlanCacheStats(); c.Grows && hits == 0 {
		t.Fatal("the session never hit its plan cache")
	}
}

// resize grows big and other tenfold before a growing cell's third pass and
// shrinks them back before its fifth, and returns the pass's reference.
func resize(t *testing.T, s *engine.Session, pass int, m *Matrix) []string {
	switch pass {
	case 2:
		fillSpillTables(t, s, growFrom, 10*growFrom)
	case 4:
		mustExec(t, s, fmt.Sprintf(`DELETE FROM big WHERE v >= %d`, growFrom))
		mustExec(t, s, fmt.Sprintf(`DELETE FROM other WHERE v >= %d`, growFrom/2))
	}
	if pass == 2 || pass == 3 {
		return m.Grown
	}
	return m.Want
}

// interfere may close a stream of st after a few rows, run a statement that
// fails mid-build, or cancel one. A stream of a statement that does not fail
// in the reference must not fail.
func interfere(t *testing.T, s *engine.Session, st Stmt, fails bool, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0:
		rows, err := s.Query(st.SQL, st.Args...)
		for n := rng.Intn(5); n > 0 && err == nil; n-- {
			_, err = rows.Next()
		}
		if rows != nil {
			rows.Close()
		}
		if err != nil && !fails {
			t.Fatalf("%s, closed early: %v", st.SQL, err)
		}
	case 1:
		if _, err := s.Execute(failsMidBuild); err == nil {
			t.Fatal("a join whose build keys divide by zero succeeded")
		}
	case 2:
		kill := make(chan struct{})
		close(kill)
		s.SetInterrupt(kill)
		if _, err := s.Execute(cancelled); err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("a cancelled statement returned %v", err)
		}
		s.SetInterrupt(nil)
	}
}

func mustExec(t *testing.T, s *engine.Session, q string) {
	t.Helper()
	if _, err := s.Execute(q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}
