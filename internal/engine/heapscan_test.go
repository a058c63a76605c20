package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"perm/internal/storage"
	"perm/internal/value"
)

// TestSnapshotScanAcrossVacuum: a scan walks the table's heap in place at
// its pinned snapshot, so a stream suspended between rows survives what
// other sessions do meanwhile — updates, deletes and inserts, a vacuum that
// compacts the heap it is reading, and Saves. The stream yields exactly the
// rows its snapshot saw, in slot order, serially and when the parallel leaf
// cuts slot ranges of the pinned heap; each Save restores to the table as of
// its own LSN.
func TestSnapshotScanAcrossVacuum(t *testing.T) {
	const n = 5000
	for _, deg := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", deg), func(t *testing.T) {
			db := NewDB()
			s, writer := db.NewSession(), db.NewSession()
			defer s.Close()
			defer writer.Close()
			mustExecSpill(t, s, `CREATE TABLE big (id int, v int)`)
			var b strings.Builder
			b.WriteString(`INSERT INTO big VALUES `)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d)", i, i)
			}
			mustExecSpill(t, s, b.String())
			// Rows deleted before the stream opens are dead at its snapshot,
			// so the vacuum below drops their slots and publishes a compacted
			// heap while the stream still reads the old one.
			mustExecSpill(t, s, `DELETE FROM big WHERE id % 10 = 3`)
			mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
			mustExecSpill(t, s, `SET trace = on`)
			const q = `SELECT id, v FROM big WHERE v >= 0`
			want := renderRows(mustExecSpill(t, s, q))

			rows, err := s.QueryBorrowed(q)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			saves := 0
			for i := 0; ; i++ {
				row, err := rows.Next()
				if err != nil {
					t.Fatal(err)
				}
				if row == nil {
					break
				}
				if i > 0 {
					got.WriteByte('\n')
				}
				fmt.Fprintf(&got, "%s|%s", row[0], row[1])
				if i%700 != 0 {
					continue
				}
				mustExecSpill(t, writer, fmt.Sprintf(`UPDATE big SET v = v + 1000000 WHERE id = %d`, i+1))
				mustExecSpill(t, writer, fmt.Sprintf(`DELETE FROM big WHERE id = %d OR id = %d`, i+2, n-1-i))
				mustExecSpill(t, writer, fmt.Sprintf(`INSERT INTO big VALUES (%d, %d)`, n+i, -i))
				db.Store().Vacuum()
				checkSaveRestores(t, db, writer)
				saves++
			}
			if got.String() != want {
				t.Fatalf("the suspended stream diverged from its snapshot:\nwant %.300s\ngot  %.300s", want, got.String())
			}
			if tr := s.LastTrace(); deg > 1 && tr.ParallelOps == 0 {
				t.Fatalf("parallelism %d did not fan the scan out", deg)
			}
			if saves == 0 {
				t.Fatal("no writes ran mid-stream")
			}
			if st := db.Store().MVCCStatus(); st.Pins != 0 {
				t.Fatalf("pins after the stream = %d, want 0", st.Pins)
			}
			db.Store().Vacuum()
			checkSaveRestores(t, db, writer)
		})
	}
}

// checkSaveRestores saves db and requires the restored table big to hold the
// rows a read right after the Save sees, in the same order: nothing writes
// in between, so that read is the table as of the Save's LSN.
func checkSaveRestores(t *testing.T, db *DB, reader *Session) {
	t.Helper()
	var buf bytes.Buffer
	lsn, err := db.Store().SaveLSN(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := mustExecSpill(t, reader, `SELECT id, v FROM big`).Rows
	r := storage.NewStore()
	if err := r.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if r.Log().LastLSN() != lsn {
		t.Fatalf("restored at LSN %d, saved at %d", r.Log().LastLSN(), lsn)
	}
	got := r.Table("big").Snapshot()
	if len(got) != len(want) {
		t.Fatalf("save at LSN %d restored %d rows, want %d", lsn, len(got), len(want))
	}
	for i := range got {
		if value.Distinct(got[i][0], want[i][0]) || value.Distinct(got[i][1], want[i][1]) {
			t.Fatalf("save at LSN %d: restored row %d is %v, want %v", lsn, i, got[i], want[i])
		}
	}
}
