package engine_test

import (
	"fmt"
	"os"
	"testing"

	"perm/internal/engine"
	"perm/internal/workload"
)

// spillTraffic is what the benchmark's classes, plain and with provenance,
// spill in one session run one after another, per work_mem and degree: the
// logical files created and the bytes written, as SHOW memory_status counts
// them. They were taken when every logical file was a temp file of its own;
// files sharing one backing file must spill the same files and bytes. At
// 1 MiB and two workers the traffic varies from run to run: whether the
// workers' partial groups outgrow the shared budget, and the aggregation
// falls back to the serial spilling path, depends on their timing. A change
// to what the operators spill takes these figures again: they were last taken
// when the aggregation stopped evicting whole groups as partial records.
var spillTraffic = map[string][2]int64{
	"work_mem=1048576/parallelism=1": {116, 2_056_602},
	"work_mem=4096/parallelism=1":    {2745, 17_312_157},
	"work_mem=4096/parallelism=2":    {2745, 17_312_157},
}

// TestSpillSharesOneBackingFile runs the benchmark's classes, plain and with
// provenance, under work_mem {1 MiB, 4 KiB} × parallelism {1, 2}, each first
// as a cursor suspended after its first row and then to completion. The
// suspended cursor holds at most one file in the session's temp_dir —
// exactly one while it has spill files open — and none once it closes. The
// session spills the same logical files and bytes as when each was a temp
// file of its own.
func TestSpillSharesOneBackingFile(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(2000)); err != nil {
		t.Fatal(err)
	}
	var stmts []string
	for _, b := range recycleBodies {
		stmts = append(stmts, "SELECT "+b, "SELECT PROVENANCE "+b)
	}
	for _, workMem := range []int64{1048576, 4096} {
		for _, degree := range []int{1, 2} {
			cfg := fmt.Sprintf("work_mem=%d/parallelism=%d", workMem, degree)
			t.Run(cfg, func(t *testing.T) {
				s := db.NewSession()
				s.SetWorkMem(workMem)
				s.SetParallelism(degree)
				defer s.Close()
				dir := t.TempDir()
				s.SetTempDir(dir)
				entries := func() int {
					ents, err := os.ReadDir(dir)
					if err != nil {
						t.Fatal(err)
					}
					return len(ents)
				}
				suspended := 0
				for _, q := range stmts {
					rows, err := s.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					if _, err := rows.Next(); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
					n, live := entries(), engine.LiveSpillFiles(s)
					if n != min(live, 1) {
						t.Fatalf("%s: a cursor holding %d spill files left %d files in temp_dir", q, live, n)
					}
					suspended += n
					rows.Close()
					if n := entries(); n != 0 {
						t.Fatalf("%s: %d files in temp_dir after the cursor closed", q, n)
					}
					if _, err := s.Execute(q); err != nil {
						t.Fatalf("%s: %v", q, err)
					}
				}
				ms := s.MemStatus()
				t.Logf("%s: spill files %d bytes %d; %d suspended cursors held a file", cfg, ms.SpillFiles, ms.SpillBytes, suspended)
				w, ok := spillTraffic[cfg]
				if !ok {
					return
				}
				if suspended == 0 {
					t.Fatalf("no suspended cursor held a spill file: %+v", ms)
				}
				if ms.SpillFiles != w[0] || ms.SpillBytes != w[1] {
					t.Errorf("spilled %d files, %d bytes; want %d files, %d bytes", ms.SpillFiles, ms.SpillBytes, w[0], w[1])
				}
			})
		}
	}
}
