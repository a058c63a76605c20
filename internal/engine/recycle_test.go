package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"perm/internal/engine"
	"perm/internal/workload"
)

// recycleBodies are the benchmark's seven statement classes, run plain and as
// SELECT PROVENANCE.
var recycleBodies = []string{
	`m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
	`count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
	`mid, text FROM messages UNION SELECT mid, text FROM imports`,
	`mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`,
	`m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid <= 300 AND u.uid <= 200`,
	`u.name, count(*) FROM messages m JOIN users u ON m.uid = u.uid GROUP BY u.name`,
	`mid, text, uid FROM messages ORDER BY text, mid`,
}

// recycleShapes add the blocking operators the classes do not reach.
var recycleShapes = []string{
	`SELECT mid, text FROM messages INTERSECT SELECT mid, text FROM imports`,
	`SELECT mid FROM approved INTERSECT ALL SELECT mid FROM messages`,
	`SELECT mid, text FROM imports EXCEPT SELECT mid, text FROM messages`,
	`SELECT uid FROM approved EXCEPT ALL SELECT uid FROM users`,
	`SELECT DISTINCT uid, mid % 7 FROM approved`,
	`SELECT uid, count(DISTINCT mid), min(mid) FROM approved GROUP BY uid`,
	`SELECT uid, count(*), min(mid), max(mid) FROM approved GROUP BY uid`, // parallel: partial aggregates merged
	`SELECT name, uid FROM users ORDER BY name DESC, uid`,
	`SELECT a.uid, count(*) FROM approved a JOIN messages m ON a.mid = m.mid GROUP BY a.uid ORDER BY a.uid`,
}

// A statement that fails while its join drains the build side, and one that
// is cancelled.
const (
	failsMidBuild = `SELECT m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid / (u.uid - 50)`
	cancelled     = `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`
)

func renderResult(res *engine.Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, "|"))
	for _, row := range res.Rows {
		b.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.String())
		}
	}
	return b.String()
}

func recycleSession(t *testing.T, db *engine.DB, workMem string, degree int) *engine.Session {
	t.Helper()
	s := db.NewSession()
	for _, q := range []string{`SET work_mem = ` + workMem, fmt.Sprintf(`SET parallelism = %d`, degree)} {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSlabRecyclingNeverChangesResults runs the benchmark's classes, plain and
// with provenance, and the other blocking shapes in shuffled order, many
// times in one session, between streams closed early, a statement that fails
// mid-build and a cancelled one, under work_mem {default, 1 MiB, 4 KiB} ×
// parallelism {1, 2}: every result must be byte-identical to a fresh
// session's, whatever slabs the operators took from the session.
func TestSlabRecyclingNeverChangesResults(t *testing.T) {
	// 700 messages: approved, with three rows a message, is still large
	// enough to fan out.
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(700)); err != nil {
		t.Fatal(err)
	}
	stmts := append([]string(nil), recycleShapes...)
	for _, b := range recycleBodies {
		stmts = append(stmts, "SELECT "+b, "SELECT PROVENANCE "+b)
	}
	const rounds = 3
	// The reference: each statement alone in a fresh serial session under the
	// default work_mem, which every configuration must reproduce.
	want := map[string]string{}
	for _, q := range stmts {
		fresh := recycleSession(t, db, fmt.Sprint(engine.DefaultWorkMem), 1)
		res, err := fresh.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[q] = renderResult(res)
		fresh.Close()
	}
	for _, workMem := range []string{fmt.Sprint(engine.DefaultWorkMem), "1048576", "4096"} {
		for _, degree := range []int{1, 2} {
			t.Run(fmt.Sprintf("work_mem=%s/parallelism=%d", workMem, degree), func(t *testing.T) {
				s := recycleSession(t, db, workMem, degree)
				defer s.Close()
				rng := rand.New(rand.NewSource(int64(len(workMem) + degree)))
				for round := 0; round < rounds; round++ {
					for _, i := range rng.Perm(len(stmts)) {
						q := stmts[i]
						switch rng.Intn(4) {
						case 0: // a stream closed after a few rows
							rows, err := s.Query(q)
							if err != nil {
								t.Fatalf("%s: %v", q, err)
							}
							for n := rng.Intn(5); n > 0; n-- {
								if _, err := rows.Next(); err != nil {
									t.Fatalf("%s: %v", q, err)
								}
							}
							rows.Close()
						case 1:
							if _, err := s.Execute(failsMidBuild); err == nil {
								t.Fatal("a join whose build keys divide by zero succeeded")
							}
						case 2:
							kill := make(chan struct{})
							close(kill)
							s.SetInterrupt(kill)
							_, err := s.Execute(cancelled)
							s.SetInterrupt(nil)
							if err == nil || !strings.Contains(err.Error(), "interrupted") {
								t.Fatalf("a cancelled statement returned %v", err)
							}
						}
						res, err := s.Execute(q)
						if err != nil {
							t.Fatalf("round %d: %s: %v", round, q, err)
						}
						if got := renderResult(res); got != want[q] {
							t.Fatalf("round %d: %s diverged from a fresh session:\nwant:\n%.800s\ngot:\n%.800s", round, q, want[q], got)
						}
					}
				}
				if ms := s.MemStatus(); ms.Tracked != 0 || ms.IdleSlabs == 0 {
					t.Fatalf("after the rounds: %d bytes still tracked, %d idle slabs", ms.Tracked, ms.IdleSlabs)
				}
			})
		}
	}
}

// TestIdleSlabsBoundedAndDropped: what a session keeps between statements
// stays within its work_mem, shrinks at the next statement after a lower SET
// work_mem, shows in SHOW memory_status, and is gone after Close.
func TestIdleSlabsBoundedAndDropped(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(1000)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	exec := func(q string) *engine.Result {
		t.Helper()
		res, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	run := func() {
		for _, b := range recycleBodies {
			exec("SELECT " + b)
			exec("SELECT PROVENANCE " + b)
		}
	}
	run()
	ms := s.MemStatus()
	if ms.IdleSlabs == 0 || ms.IdleSlabs > 8*16 || ms.IdleSlabBytes > ms.WorkMem {
		t.Fatalf("after a cycle under %d bytes of work_mem: %d idle slabs of %d bytes", ms.WorkMem, ms.IdleSlabs, ms.IdleSlabBytes)
	}
	show := exec(`SHOW memory_status`).Rows[0]
	if bytes, slabs := show[6].Int(), show[7].Int(); bytes != ms.IdleSlabBytes || slabs != int64(ms.IdleSlabs) {
		t.Fatalf("SHOW memory_status says %d idle slabs of %d bytes, MemStatus %d of %d", slabs, bytes, ms.IdleSlabs, ms.IdleSlabBytes)
	}
	const lower = 64 << 10
	if lower >= ms.IdleSlabBytes {
		t.Fatalf("the session keeps only %d idle bytes: lowering work_mem to %d trims nothing", ms.IdleSlabBytes, lower)
	}
	exec(fmt.Sprintf(`SET work_mem = %d`, lower))
	exec("SELECT " + recycleBodies[5])
	if ms := s.MemStatus(); ms.IdleSlabBytes > lower {
		t.Fatalf("%d idle bytes after work_mem fell to %d", ms.IdleSlabBytes, lower)
	}
	run()
	if ms := s.MemStatus(); ms.IdleSlabBytes > lower {
		t.Fatalf("%d idle bytes after a cycle under %d bytes of work_mem", ms.IdleSlabBytes, lower)
	}
	s.Close()
	if ms := s.MemStatus(); ms.IdleSlabBytes != 0 || ms.IdleSlabs != 0 {
		t.Fatalf("a closed session keeps %d idle slabs of %d bytes", ms.IdleSlabs, ms.IdleSlabBytes)
	}
}
