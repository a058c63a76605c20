package engine

import (
	"testing"
)

// plancache_test.go covers the session plan cache: hits skip the pipeline,
// every schema-changing operation forces a re-plan, SET changes re-plan via
// the settings fingerprint, and sessions are isolated from each other.

func cacheSession(t *testing.T) *Session {
	t.Helper()
	s := session(t)
	exec(t, s, `CREATE TABLE t (a int, b text)`)
	exec(t, s, `INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	return s
}

func TestPlanCacheHitSkipsStages(t *testing.T) {
	s := cacheSession(t)
	q := `SELECT PROVENANCE a, b FROM t WHERE a >= 2`

	first := exec(t, s, q)
	if first.CacheHit {
		t.Fatal("first execution must be a miss")
	}
	if first.Timings.Analyze <= 0 {
		t.Fatal("miss must run the analyzer")
	}

	second := exec(t, s, q)
	if !second.CacheHit {
		t.Fatal("second identical execution must hit the plan cache")
	}
	if second.Timings.Parse != 0 || second.Timings.Analyze != 0 ||
		second.Timings.Rewrite != 0 || second.Timings.Plan != 0 {
		t.Errorf("hit must skip parse/analyze/rewrite/plan, got %+v", second.Timings)
	}
	if second.Timings.Execute <= 0 {
		t.Error("hit must still execute")
	}
	if len(second.Rows) != len(first.Rows) || len(second.Columns) != len(first.Columns) {
		t.Errorf("cached result differs: %v vs %v", second.Rows, first.Rows)
	}
	for i := range second.Columns {
		if second.Columns[i] != first.Columns[i] {
			t.Errorf("column %d = %q, want %q", i, second.Columns[i], first.Columns[i])
		}
	}
}

func TestPlanCacheSeesNewData(t *testing.T) {
	s := cacheSession(t)
	q := `SELECT count(*) FROM t`
	exec(t, s, q)
	exec(t, s, `INSERT INTO t VALUES (4, 'w')`)
	res := exec(t, s, q)
	if !res.CacheHit {
		t.Fatal("DML must not invalidate the plan cache")
	}
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("cached plan must read current data, count = %v", res.Rows[0][0])
	}
}

func TestPlanCacheDDLInvalidation(t *testing.T) {
	ddls := []string{
		`CREATE TABLE other (x int)`,
		`DROP TABLE other2`,
		`CREATE VIEW vv AS SELECT a FROM t`,
		`DROP VIEW vv2`,
		`ANALYZE t`,
	}
	for _, ddl := range ddls {
		t.Run(ddl, func(t *testing.T) {
			s := cacheSession(t)
			exec(t, s, `CREATE TABLE other2 (x int)`)
			exec(t, s, `CREATE VIEW vv2 AS SELECT a FROM t`)
			q := `SELECT a FROM t WHERE a = 1`
			exec(t, s, q)
			if res := exec(t, s, q); !res.CacheHit {
				t.Fatal("warm-up execution must hit")
			}
			exec(t, s, ddl)
			res := exec(t, s, q)
			if res.CacheHit {
				t.Errorf("%s must force a re-plan", ddl)
			}
			if res.Timings.Analyze <= 0 {
				t.Error("re-plan must run the analyzer")
			}
			// And the re-planned statement is cached again.
			if res := exec(t, s, q); !res.CacheHit {
				t.Error("statement must be re-cached after invalidation")
			}
		})
	}
}

func TestPlanCacheViewRedefinition(t *testing.T) {
	s := cacheSession(t)
	exec(t, s, `CREATE VIEW v AS SELECT a FROM t WHERE a >= 2`)
	q := `SELECT * FROM v`
	if got := len(exec(t, s, q).Rows); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	exec(t, s, `DROP VIEW v`)
	exec(t, s, `CREATE VIEW v AS SELECT a FROM t WHERE a >= 1`)
	res := exec(t, s, q)
	if res.CacheHit {
		t.Error("redefined view must not be served from the old plan")
	}
	if got := len(res.Rows); got != 3 {
		t.Errorf("rows = %d, want 3 (stale plan served)", got)
	}
}

func TestPlanCacheSetInvalidation(t *testing.T) {
	settings := []string{
		`SET provenance_contribution = 'copy'`,
		`SET provenance_strategy = 'cost'`,
		`SET provenance_agg_strategy = 'joingroup'`,
		`SET provenance_set_strategy = 'pad'`,
		`SET provenance_distinct_strategy = 'join'`,
		`SET optimizer = 'off'`,
	}
	for _, set := range settings {
		t.Run(set, func(t *testing.T) {
			s := cacheSession(t)
			q := `SELECT PROVENANCE a FROM t`
			exec(t, s, q)
			if res := exec(t, s, q); !res.CacheHit {
				t.Fatal("warm-up execution must hit")
			}
			exec(t, s, set)
			if res := exec(t, s, q); res.CacheHit {
				t.Errorf("%s must force a re-plan", set)
			}
		})
	}
}

// TestPlanCacheExecutorSettingsAreNeutral: parallelism and work_mem bind when
// the executor opens, never at plan time, so changing them must neither
// invalidate nor fork cached plans.
func TestPlanCacheExecutorSettingsAreNeutral(t *testing.T) {
	for _, set := range []string{`SET parallelism = 2`, `SET parallelism = 0`, `SET work_mem = 4096`} {
		t.Run(set, func(t *testing.T) {
			s := cacheSession(t)
			q := `SELECT PROVENANCE a FROM t`
			exec(t, s, q)
			_, misses, _ := s.PlanCacheStats()
			exec(t, s, set)
			if res := exec(t, s, q); !res.CacheHit {
				t.Errorf("%s forced a re-plan", set)
			}
			if _, after, _ := s.PlanCacheStats(); after != misses {
				t.Errorf("%s: plan-cache misses went %d -> %d", set, misses, after)
			}
		})
	}
}

func TestPlanCacheCrossSessionIsolation(t *testing.T) {
	db := NewDB()
	s1 := db.NewSession()
	if _, err := s1.ExecuteScript(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT a FROM t`
	exec(t, s1, q)
	if res := exec(t, s1, q); !res.CacheHit {
		t.Fatal("same-session repeat must hit")
	}
	s2 := db.NewSession()
	if res := exec(t, s2, q); res.CacheHit {
		t.Error("a fresh session must plan for itself")
	}
	// DDL in one session invalidates cached plans in another.
	exec(t, s2, `CREATE TABLE other (x int)`)
	if res := exec(t, s1, q); res.CacheHit {
		t.Error("DDL from another session must invalidate this session's cache")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	s := cacheSession(t)
	exec(t, s, `SET plan_cache = 'off'`)
	q := `SELECT a FROM t`
	exec(t, s, q)
	if res := exec(t, s, q); res.CacheHit {
		t.Error("plan_cache=off must disable caching")
	}
}

func TestPlanCacheStatsAndShow(t *testing.T) {
	s := cacheSession(t)
	q := `SELECT a FROM t`
	exec(t, s, q)
	exec(t, s, q)
	exec(t, s, q)
	hits, misses, size := s.PlanCacheStats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Errorf("stats = %d hits / %d misses / %d entries, want 2/1/1", hits, misses, size)
	}
	res := exec(t, s, `SHOW plan_cache_stats`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 || res.Rows[0][1].Int() != 1 || res.Rows[0][2].Int() != 1 {
		t.Errorf("SHOW plan_cache_stats = %v", res.Rows)
	}
}

func TestPlanCacheOnlySelectsCached(t *testing.T) {
	s := cacheSession(t)
	ins := `INSERT INTO t VALUES (9, 'q')`
	exec(t, s, ins)
	res := exec(t, s, ins)
	if res.CacheHit {
		t.Error("DML must never be served from the plan cache")
	}
	count := exec(t, s, `SELECT count(*) FROM t`)
	if count.Rows[0][0].Int() != 5 {
		t.Errorf("count = %v, want 5 (both inserts applied)", count.Rows[0][0])
	}
}

func TestPlanCacheWhitespaceNormalization(t *testing.T) {
	s := cacheSession(t)
	exec(t, s, `SELECT a FROM t`)
	if res := exec(t, s, "  SELECT a FROM t ;\n"); !res.CacheHit {
		t.Error("leading/trailing whitespace and semicolons must not defeat the cache")
	}
	// Interior whitespace is significant (it may sit inside a literal).
	if res := exec(t, s, `SELECT  a FROM t`); res.CacheHit {
		t.Error("interior whitespace must produce a distinct key")
	}
}

// TestSharedSessionConcurrentSet hammers one session (the perm.DB implicit
// session pattern) with statements and SETs concurrently. Under -race this
// guards the settings/fingerprint locking that cache keying relies on.
func TestSharedSessionConcurrentSet(t *testing.T) {
	s := cacheSession(t)
	done := make(chan error, 3)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := s.Execute(`SELECT a FROM t WHERE a >= 1`); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 100; i++ {
			mode := "'off'"
			if i%2 == 0 {
				mode = "'on'"
			}
			if _, err := s.Execute(`SET optimizer = ` + mode); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := s.Execute(`SHOW plan_cache_stats`); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
