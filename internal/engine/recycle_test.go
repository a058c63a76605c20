package engine_test

import (
	"fmt"
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
