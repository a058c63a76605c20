package perm_test

import (
	"fmt"
	"strings"
	"testing"

	"perm"
	"perm/internal/workload"
)

// This file holds one benchmark per experiment — the regenerating targets for
// every figure of the paper (E1–E4) and for the performance-shaped
// experiments (E5–E8), run with `go test -bench`. The end-to-end benchmark
// with recorded baselines is permperf (benchmarks/).

// mustForum returns a DB loaded with the scaled forum workload.
func mustForum(b *testing.B, n int) *perm.DB {
	b.Helper()
	db := perm.Open()
	if err := workload.LoadForum(db.Engine(), workload.DefaultForum(n)); err != nil {
		b.Fatal(err)
	}
	return db
}

// mustPaperDB returns the exact Figure 1 database.
func mustPaperDB(b *testing.B) *perm.DB {
	b.Helper()
	db := perm.Open()
	if err := workload.LoadPaperExample(db.Engine()); err != nil {
		b.Fatal(err)
	}
	return db
}

func runQuery(b *testing.B, db *perm.DB, q string) {
	b.Helper()
	if _, err := db.Exec(q); err != nil {
		b.Fatalf("%v\nquery: %s", err, q)
	}
}

// BenchmarkFigure1QueryExecution (E1): the paper's example queries q1 and q3
// on the Figure 1 database.
func BenchmarkFigure1QueryExecution(b *testing.B) {
	db := mustPaperDB(b)
	b.Run("q1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, `SELECT mId, text FROM messages UNION SELECT mId, text FROM imports`)
		}
	})
	b.Run("q3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, `SELECT count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId, text`)
		}
	})
}

// BenchmarkFigure2Provenance (E2): computing the Figure 2 provenance table.
func BenchmarkFigure2Provenance(b *testing.B) {
	db := mustPaperDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuery(b, db, `SELECT PROVENANCE mId, text FROM messages UNION SELECT mId, text FROM imports`)
	}
}

// BenchmarkFigure3Stages (E3): the pipeline of the architecture diagram —
// parse, analyze (with provenance rewrite), plan, execute — measured end to
// end for the provenance aggregation query, in two modes:
//
//   - pipeline: plan cache off, every iteration pays every stage. This is the
//     variant that regression-guards the rewriter — with caching on,
//     rewrite-ns/op would read ~0 and a rewriter slowdown would be invisible.
//   - cached: the default session behavior, where iterations after the first
//     hit the plan cache and only execution remains (the steady-state cost of
//     a repeated provenance statement).
func BenchmarkFigure3Stages(b *testing.B) {
	db := mustPaperDB(b)
	q := `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId, text`
	run := func(b *testing.B, sess *perm.Session) {
		b.ReportAllocs()
		b.ResetTimer()
		var rewrite, execute int64
		for i := 0; i < b.N; i++ {
			res, err := sess.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			rewrite += res.RewriteTime.Nanoseconds()
			execute += res.ExecuteTime.Nanoseconds()
		}
		b.ReportMetric(float64(rewrite)/float64(b.N), "rewrite-ns/op")
		b.ReportMetric(float64(execute)/float64(b.N), "execute-ns/op")
	}
	b.Run("pipeline", func(b *testing.B) {
		sess := db.NewSession()
		if _, err := sess.Exec(`SET plan_cache = 'off'`); err != nil {
			b.Fatal(err)
		}
		run(b, sess)
	})
	b.Run("cached", func(b *testing.B) {
		run(b, db.NewSession())
	})
}

// BenchmarkFigure4Browser (E4): producing the Perm-browser artifacts
// (original tree, rewritten tree, rewritten SQL).
func BenchmarkFigure4Browser(b *testing.B) {
	db := perm.Open()
	db.MustExecScript(`
		CREATE TABLE s (i int); CREATE TABLE r (i int);
		INSERT INTO s VALUES (1), (2); INSERT INTO r VALUES (1), (2);`)
	q := `SELECT PROVENANCE * FROM s JOIN r ON s.i = r.i`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := db.Explain(q)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(ex.RewrittenSQL, "prov_public_s_i") {
			b.Fatal("missing provenance attribute")
		}
	}
}

// BenchmarkProvenanceOverhead (E5): plain vs provenance per query class and
// dataset size. The interesting output is the plain/prov ratio per class.
func BenchmarkProvenanceOverhead(b *testing.B) {
	classes := []struct {
		name  string
		plain string
		prov  string
	}{
		{"SPJ",
			`SELECT m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
			`SELECT PROVENANCE m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`},
		{"AGG",
			`SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
			`SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`},
		{"UNION",
			`SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
			`SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`},
		{"NESTED",
			`SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)`,
			`SELECT PROVENANCE mid FROM messages WHERE mid IN (SELECT mid FROM approved)`},
	}
	for _, n := range []int{100, 1000} {
		db := mustForum(b, n)
		for _, c := range classes {
			b.Run(fmt.Sprintf("%s/n=%d/plain", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runQuery(b, db, c.plain)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/prov", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runQuery(b, db, c.prov)
				}
			})
		}
	}
}

// BenchmarkStrategy (E6): the rewrite-strategy ablation.
func BenchmarkStrategy(b *testing.B) {
	db := mustForum(b, 1000)
	unionQ := `SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`
	aggQ := `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`
	cases := []struct {
		name    string
		setting string
		query   string
	}{
		{"SetPad", "SET provenance_set_strategy = 'pad'", unionQ},
		{"SetJoin", "SET provenance_set_strategy = 'join'", unionQ},
		{"AggJoinGroup", "SET provenance_agg_strategy = 'joingroup'", aggQ},
		{"AggCrossFilter", "SET provenance_agg_strategy = 'crossfilter'", aggQ},
		{"CostBased", "SET provenance_strategy = 'cost'", aggQ},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sess := db.NewSession()
			if _, err := sess.Exec(c.setting); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyVsEager (E7): recompute provenance per use vs query the
// materialized provenance table.
func BenchmarkLazyVsEager(b *testing.B) {
	db := mustForum(b, 1000)
	db.MustExec(`CREATE TABLE provmat AS
		SELECT PROVENANCE count(*), text
		FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`)
	lazy := `SELECT text, prov_public_imports_origin
		FROM (SELECT PROVENANCE count(*), text
		      FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text) AS p
		WHERE count > 1 AND prov_public_imports_origin IS NOT NULL`
	eager := `SELECT text, prov_public_imports_origin FROM provmat
		WHERE count > 1 AND prov_public_imports_origin IS NOT NULL`
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, lazy)
		}
	})
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, eager)
		}
	})
}

// BenchmarkIncremental (E8): full rewrite vs BASERELATION stop vs external
// provenance reuse.
func BenchmarkIncremental(b *testing.B) {
	db := mustForum(b, 1000)
	db.MustExec(`CREATE VIEW v2 AS
		SELECT v1.mid AS mid, text, count(*) AS cnt
		FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`)
	db.MustExec(`CREATE TABLE v2prov AS SELECT PROVENANCE mid, text, cnt FROM v2`)
	var provCols []string
	for _, c := range db.Engine().Catalog().Table("v2prov").Columns {
		if strings.HasPrefix(c.Name, "prov_") {
			provCols = append(provCols, c.Name)
		}
	}
	external := `SELECT PROVENANCE mid, cnt FROM v2prov PROVENANCE (` +
		strings.Join(provCols, ", ") + `) WHERE cnt > 1`
	cases := []struct{ name, q string }{
		{"full", `SELECT PROVENANCE mid, cnt FROM v2 WHERE cnt > 1`},
		{"baserelation", `SELECT PROVENANCE mid, cnt FROM v2 BASERELATION WHERE cnt > 1`},
		{"external", external},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runQuery(b, db, c.q)
			}
		})
	}
}

// BenchmarkOptimizerAblation measures the planner's contribution on a
// provenance query: the same rewritten plan with and without
// the logical optimizer (predicate pushdown, filter merging, projection
// collapsing).
func BenchmarkOptimizerAblation(b *testing.B) {
	db := mustForum(b, 1000)
	q := `SELECT text, prov_public_imports_origin
		FROM (SELECT PROVENANCE count(*), text
		      FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text) AS p
		WHERE count > 1 AND prov_public_imports_origin IS NOT NULL`
	for _, mode := range []string{"on", "off"} {
		b.Run("optimizer="+mode, func(b *testing.B) {
			sess := db.NewSession()
			if _, err := sess.Exec(`SET optimizer = '` + mode + `'`); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRewriteOnly isolates the provenance rewriter itself (analysis +
// rewrite, no execution) — the cost Perm adds in front of the host DBMS's
// optimizer in Figure 3.
func BenchmarkRewriteOnly(b *testing.B) {
	db := mustForum(b, 100)
	q := `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledEval regression-guards the compiled expression path: a
// filter + projection dense with arithmetic, CASE, functions, LIKE and IN,
// where nearly all of the work is per-row expression evaluation.
func BenchmarkCompiledEval(b *testing.B) {
	db := mustForum(b, 1000)
	q := `SELECT mid, length(text) + abs(mid - 500) * 2,
	             CASE WHEN mid % 2 = 0 THEN upper(text) ELSE lower(text) END
	      FROM messages
	      WHERE ((mid * 7 + 3) % 11 < 8 AND text LIKE '%5%') OR mid IN (1, 2, 3)`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuery(b, db, q)
	}
}

// BenchmarkPlanCacheHit regression-guards the session plan cache: the same
// provenance query executed with the cache off (full pipeline each time) and
// on (parse/analyze/rewrite/plan skipped after the first execution).
func BenchmarkPlanCacheHit(b *testing.B) {
	db := mustForum(b, 100)
	q := `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`
	b.Run("miss", func(b *testing.B) {
		sess := db.NewSession()
		if _, err := sess.Exec(`SET plan_cache = 'off'`); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		sess := db.NewSession()
		if _, err := sess.Exec(q); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Exec(q)
			if err != nil {
				b.Fatal(err)
			}
			if !res.CacheHit {
				b.Fatal("expected a plan-cache hit")
			}
		}
	})
}

// BenchmarkObservabilityOverhead measures what each observability tier adds
// to the Figure 2 provenance query (PERFORMANCE.md §10):
//
//   - off: the default session — instrumentation compiled in but disabled,
//     the path every production query takes. Must stay within noise of the
//     pre-observability engine.
//   - armed: a slow-query threshold is set (high enough never to fire), so
//     each statement carries the deep-observation sidecar (pool baselines,
//     SQL retention) but executes uninstrumented iterators.
//   - traced: SET trace = on — every operator wrapped with counters and
//     timers, the full per-operator profile built after each statement.
func BenchmarkObservabilityOverhead(b *testing.B) {
	q := `SELECT PROVENANCE mId, text FROM messages UNION SELECT mId, text FROM imports`
	cases := []struct{ name, setup string }{
		{"off", ""},
		{"armed", `SET slow_query_ms = 3600000`},
		{"traced", `SET trace = on`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := mustPaperDB(b)
			sess := db.NewSession()
			if c.setup != "" {
				if _, err := sess.Exec(c.setup); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScratchKeys regression-guards the remaining scratch-key reuse
// paths: DISTINCT aggregates (seen-set lookups through a reusable buffer)
// and uncorrelated IN-subquery probes (hash membership without a key string
// per outer row).
func BenchmarkScratchKeys(b *testing.B) {
	db := mustForum(b, 2000)
	b.Run("distinct-agg", func(b *testing.B) {
		q := `SELECT count(DISTINCT uid), count(DISTINCT text) FROM messages`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, q)
		}
	})
	b.Run("in-probe", func(b *testing.B) {
		q := `SELECT count(*) FROM messages WHERE mid IN (SELECT mid FROM approved)`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, db, q)
		}
	})
}

// BenchmarkParallelQuery (E9): intra-query parallelism on a 100k-row
// provenance join + aggregation, across worker degrees. parallelism=1 is the
// classic single-goroutine executor (the zero-overhead baseline); higher
// degrees exercise the partition-wise parallel join under the serial
// aggregation. Speedup tracks physical core count — on a single-core host the
// curve is flat and measures exchange overhead instead.
func BenchmarkParallelQuery(b *testing.B) {
	db := perm.Open()
	seed := db.NewSession()
	if _, err := seed.Exec(`CREATE TABLE fact (k int, v int, s text)`); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Exec(`CREATE TABLE dim (k int, d text)`); err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	for off := 0; off < 100000; off += 1000 {
		sb.Reset()
		sb.WriteString(`INSERT INTO fact VALUES `)
		for i := 0; i < 1000; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'r%d')", (off+i)%512, off+i, (off+i)%89)
		}
		if _, err := seed.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	sb.Reset()
	sb.WriteString(`INSERT INTO dim VALUES `)
	for i := 0; i < 512; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'd%d')", i, i)
	}
	if _, err := seed.Exec(sb.String()); err != nil {
		b.Fatal(err)
	}
	seed.Close()

	q := `SELECT PROVENANCE f.k % 64, count(*), sum(f.v), max(d.d) FROM fact f JOIN dim d ON f.k = d.k GROUP BY f.k % 64`
	for _, deg := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", deg), func(b *testing.B) {
			sess := db.NewSession()
			defer sess.Close()
			if _, err := sess.Exec(fmt.Sprintf(`SET parallelism = %d`, deg)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
