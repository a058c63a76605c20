package server

import (
	"fmt"
	"testing"

	"perm/internal/engine"
	"perm/internal/resultmatrix"
	"perm/internal/value"
	"perm/internal/wire"
	"perm/internal/workload"
)

// The result matrix's path cells: the corpus's statements travel every path
// to a client and return what the one reference returns (see package
// resultmatrix). The session cells are the engine's.

// differentialFetchSizes are the fetch sizes the wire runs at: 0 streams to
// Complete, 1 and 7 cross many Fetch round trips, 512 is the driver's.
var differentialFetchSizes = []int{0, 1, 7, 512}

// runPaths runs m's statements along the paths a statement travels, on a
// server configured by cfg (its TempDir aside) and an embedded session under
// cfg.WorkMem (0: the default): the embedded stream, an embedded prepared
// statement, and over the wire as a one-shot Execute with the SQL inline and
// as a prepared statement executed by name, at every fetch size. No path
// leaves a spill file, a tracked byte or a portal behind; under
// resultmatrix.TinyWorkMem the embedded session and the server's spilled,
// and each statement that Spills wrote a file of its own in the stream;
// under the default work_mem neither spilled.
func runPaths(t *testing.T, m *resultmatrix.Matrix, cfg Config, fetchSizes []int) {
	dir := t.TempDir()
	cfg.TempDir = dir
	workMem := cfg.WorkMem
	addr, srv, shutdown := startServerSrv(t, m.DB, cfg)
	defer shutdown()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	s := m.DB.NewSession()
	defer s.Close()
	s.SetTempDir(dir)
	if workMem != 0 {
		s.SetWorkMem(workMem)
	}
	for i, st := range m.Stmts {
		spilled := s.MemStatus().SpillFiles
		resultmatrix.Check(t, dir, "stream "+st.SQL, m.Want[i], resultmatrix.Drain(s.Query(st.SQL, st.Args...)))
		if workMem == resultmatrix.TinyWorkMem && st.Spills && s.MemStatus().SpillFiles == spilled {
			t.Fatalf("stream %s wrote no spill file", st.SQL)
		}
		// A statement that fails in the reference may fail as it is prepared.
		switch prep, err := s.Prepare(st.SQL); {
		case err != nil:
			resultmatrix.Check(t, dir, "prepare "+st.SQL, m.Want[i], resultmatrix.Outcome(err, nil, nil))
		case prep.NumParams() != len(st.Args):
			t.Fatalf("prepare %s: %d params", st.SQL, prep.NumParams())
		default:
			resultmatrix.Check(t, dir, "prepared "+st.SQL, m.Want[i], resultmatrix.Drain(prep.Query(st.Args...)))
		}
		switch n, err := c.Prepare("q", st.SQL); {
		case err != nil:
			resultmatrix.Check(t, dir, "wire prepare "+st.SQL, m.Want[i], resultmatrix.Outcome(err, nil, nil))
			continue
		case n != len(st.Args):
			t.Fatalf("wire prepare %s: %d params", st.SQL, n)
		}
		for _, fetch := range fetchSizes {
			for _, name := range []string{"", "q"} {
				text := st.SQL
				if name != "" {
					text = ""
				}
				cur, err := c.Execute(name, text, st.Args, fetch)
				got := resultmatrix.Outcome(err, func() (value.Row, error) { return cur.Next() },
					func() (wire.RowDesc, string) { return cur.Desc, cur.Complete.Tag })
				if cur != nil {
					if err := cur.Close(); err != nil {
						t.Fatalf("close cursor of %s: %v", st.SQL, err)
					}
				}
				resultmatrix.Check(t, dir, fmt.Sprintf("wire %q fetch %d: %s", name, fetch, st.SQL), m.Want[i], got)
			}
		}
		if err := c.CloseStmt("q"); err != nil {
			t.Fatalf("close stmt: %v", err)
		}
	}
	cur, err := c.Execute("", "SHOW memory_status", nil, 0)
	if err != nil {
		t.Fatalf("show memory_status: %v", err)
	}
	status, err := cur.Next()
	if err != nil || len(status) < 4 {
		t.Fatalf("show memory_status: %v, %v", status, err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("close cursor of show memory_status: %v", err)
	}
	tiny := workMem == resultmatrix.TinyWorkMem
	ms, wireSpills := s.MemStatus(), status[3].Int()
	if ms.Tracked != 0 || srv.ActivePortals() != 0 || tiny != (ms.SpillFiles > 0) || tiny != (wireSpills > 0) {
		t.Fatalf("%d tracked bytes, %d portals after the last statement; %d spill files embedded, %d over the wire",
			ms.Tracked, srv.ActivePortals(), ms.SpillFiles, wireSpills)
	}
}

// paperPaths runs the forum's statements with args, or those without, on the
// paper's database along the paths, the server sending cursors batchRows rows
// at a time.
func paperPaths(t *testing.T, withArgs bool, batchRows int) {
	db := engine.NewDB()
	if err := workload.LoadPaperExample(db); err != nil {
		t.Fatal(err)
	}
	var stmts []resultmatrix.Stmt
	for _, st := range resultmatrix.Paper() {
		if len(st.Args) > 0 == withArgs {
			stmts = append(stmts, st)
		}
	}
	runPaths(t, resultmatrix.Reference(t, db, stmts), Config{CursorBatchRows: batchRows}, differentialFetchSizes)
}

// TestDifferentialSuite: the forum's statements without binds.
func TestDifferentialSuite(t *testing.T) { paperPaths(t, false, 3) }

// TestDifferentialParams: the statements with binds, against their literal
// text in the reference.
func TestDifferentialParams(t *testing.T) { paperPaths(t, true, 2) }

// TestDifferentialSpillProperty: spillGen's queries for each seed, on the
// rows its seed drew, along the paths under resultmatrix.TinyWorkMem, where
// every blocking operator spills; over the wire at fetch size 64, so a result
// larger than that is read from a portal suspended with its spill files
// open.
func TestDifferentialSpillProperty(t *testing.T) {
	for _, seed := range resultmatrix.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			t.Logf("spillGen seed %d (reproduce with PERM_SPILL_SEED=%d)", seed, seed)
			genRows, stmts := resultmatrix.Generated(seed)
			m := resultmatrix.Reference(t, resultmatrix.SeedDB(t, 0, genRows), stmts)
			runPaths(t, m, Config{WorkMem: resultmatrix.TinyWorkMem}, []int{64})
		})
	}
}
