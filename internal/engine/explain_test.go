package engine_test

import (
	"regexp"
	"strconv"
	"testing"

	"perm/internal/algebra"
	"perm/internal/engine"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/workload"
)

// TestExplainAnalyzeScansPrintTheirOwnRows: the provenance rewrite of an
// aggregation joins its result back to T⁺, which reads the base tables
// through the same scan nodes as T. Under the LIMIT, T⁺'s scans stop early
// while T's read their tables whole. Each scan line prints the numbers of its
// own execution, so the scan lines' rows= add up to the rows the scans
// produced.
func TestExplainAnalyzeScansPrintTheirOwnRows(t *testing.T) {
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(200)); err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	st, err := sql.Parse(`SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := s.ExplainAnalyze(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var produced, printed int64
	ex.Stats.Walk(func(n *executor.OpStats) {
		if _, ok := n.Op.(*algebra.Scan); ok {
			produced += n.Rows
		}
	})
	for _, m := range regexp.MustCompile(`Scan .*\(rows=(\d+) `).FindAllStringSubmatch(ex.AnalyzedTree, -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		printed += n
	}
	if printed != produced {
		t.Fatalf("the scan lines print %d rows, the scans produced %d:\n%s", printed, produced, ex.AnalyzedTree)
	}
}
