package planner

import (
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/catalog"
	"perm/internal/core"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// joinplan_test.go pins the join-planning rules by the plan they produce:
// every case states the tree before and after Optimize, and checks that the
// two return the same rows.

// joinEnv has six 8-row tables for comma lists, and a 10-row and a 400-row
// table for the build-side choice; all are (k, v) with k = v % 7.
func joinEnv(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	mk := func(name string, rows int) {
		tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt}, {Name: "v", Type: value.KindInt},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			tab.Insert(value.Row{value.NewInt(int64(i % 7)), value.NewInt(int64(i))})
		}
	}
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		mk(name, 8)
	}
	mk("small", 10)
	mk("big", 400)
	if err := s.Analyze(""); err != nil {
		t.Fatal(err)
	}
	return s
}

func scanOf(t *testing.T, s *storage.Store, table string) algebra.Op {
	t.Helper()
	return planOf(t, s, "SELECT * FROM "+table).(*algebra.Project).Input
}

func col(idx int, name string) *algebra.ColIdx {
	return &algebra.ColIdx{Idx: idx, Typ: value.KindInt, Name: name}
}

func eq(l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: sql.OpEq, L: l, R: r} }

type planCase struct {
	name   string
	query  string                                          // parsed and analyzed, or
	build  func(t *testing.T, s *storage.Store) algebra.Op // built by hand
	before string
	after  string
}

func runPlanCases(t *testing.T, cases []planCase) {
	s := joinEnv(t)
	p := New(s.Catalog())
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var raw algebra.Op
			if c.build != nil {
				raw = c.build(t, s)
			} else {
				raw = planOf(t, s, c.query)
			}
			if got := strings.TrimSpace(algebra.Tree(raw)); got != strings.TrimSpace(c.before) {
				t.Fatalf("plan before Optimize:\n%s\nwant:\n%s", got, c.before)
			}
			opt := p.Optimize(raw)
			if got := strings.TrimSpace(algebra.Tree(opt)); got != strings.TrimSpace(c.after) {
				t.Errorf("plan after Optimize:\n%s\nwant:\n%s", got, c.after)
			}
			a, b := rowsOf(t, s, raw), rowsOf(t, s, opt)
			if strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Errorf("Optimize changed the result: %d rows before, %d after", len(a), len(b))
			}
			if again := algebra.Tree(p.Optimize(opt)); again != algebra.Tree(opt) {
				t.Errorf("Optimize is not idempotent on its own output:\n%s", again)
			}
		})
	}
}

// TestJoinQuals: a WHERE conjunct over both inputs of an inner or cross join
// becomes part of the join condition.
func TestJoinQuals(t *testing.T) {
	runPlanCases(t, []planCase{{
		name:  "two tables",
		query: `SELECT a.v, b.v FROM a, b WHERE a.k = b.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Select σ [(k#0 = k#2)]
    └── Join ⋈ Cross → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
		after: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
	}, {
		name:  "three tables",
		query: `SELECT a.v FROM a, b, c WHERE a.k = b.k AND b.v = c.v`,
		before: `
Project Π [v#1] → [v]
└── Select σ [((k#0 = k#2) AND (v#3 = v#5))]
    └── Join ⋈ Cross → [k, v, k, v, k, v]
        ├── Join ⋈ Cross → [k, v, k, v]
        │   ├── Scan a [k, v]
        │   └── Scan b [k, v]
        └── Scan c [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Join ⋈ Inner on (v#3 = v#5) → [k, v, k, v, k, v]
    ├── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    │   ├── Scan a [k, v]
    │   └── Scan b [k, v]
    └── Scan c [k, v]`,
	}, {
		// Five levels of joins and a single-side conjunct: more levels than
		// a pass-per-level fixpoint bounded at 8 passes could be trusted with.
		name: "six tables",
		query: `SELECT a.v FROM a, b, c, d, e, f WHERE a.k = b.k AND b.k = c.k
			AND c.k = d.k AND d.k = e.k AND e.k = f.k AND f.v > 3`,
		before: `
Project Π [v#1] → [v]
└── Select σ [((((((k#0 = k#2) AND (k#2 = k#4)) AND (k#4 = k#6)) AND (k#6 = k#8)) AND (k#8 = k#10)) AND (v#11 > 3))]
    └── Join ⋈ Cross → [k, v, k, v, k, v, k, v, k, v, k, v]
        ├── Join ⋈ Cross → [k, v, k, v, k, v, k, v, k, v]
        │   ├── Join ⋈ Cross → [k, v, k, v, k, v, k, v]
        │   │   ├── Join ⋈ Cross → [k, v, k, v, k, v]
        │   │   │   ├── Join ⋈ Cross → [k, v, k, v]
        │   │   │   │   ├── Scan a [k, v]
        │   │   │   │   └── Scan b [k, v]
        │   │   │   └── Scan c [k, v]
        │   │   └── Scan d [k, v]
        │   └── Scan e [k, v]
        └── Scan f [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Join ⋈ Inner on (k#8 = k#10) → [k, v, k, v, k, v, k, v, k, v, k, v]
    ├── Join ⋈ Inner on (k#6 = k#8) → [k, v, k, v, k, v, k, v, k, v]
    │   ├── Join ⋈ Inner on (k#4 = k#6) → [k, v, k, v, k, v, k, v]
    │   │   ├── Join ⋈ Inner on (k#2 = k#4) → [k, v, k, v, k, v]
    │   │   │   ├── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    │   │   │   │   ├── Scan a [k, v]
    │   │   │   │   └── Scan b [k, v]
    │   │   │   └── Scan c [k, v]
    │   │   └── Scan d [k, v]
    │   └── Scan e [k, v]
    └── Select σ [(v#1 > 3)]
        └── Scan f [k, v]`,
	}, {
		name:  "comma list beside an ON",
		query: `SELECT a.v FROM a JOIN b ON a.k = b.k, c WHERE c.k = b.k AND a.v < b.v`,
		before: `
Project Π [v#1] → [v]
└── Select σ [((k#4 = k#2) AND (v#1 < v#3))]
    └── Join ⋈ Cross → [k, v, k, v, k, v]
        ├── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
        │   ├── Scan a [k, v]
        │   └── Scan b [k, v]
        └── Scan c [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Join ⋈ Inner on (k#4 = k#2) → [k, v, k, v, k, v]
    ├── Join ⋈ Inner on ((k#0 = k#2) AND (v#1 < v#3)) → [k, v, k, v]
    │   ├── Scan a [k, v]
    │   └── Scan b [k, v]
    └── Scan c [k, v]`,
	}, {
		name:  "theta only",
		query: `SELECT a.v FROM a, b WHERE a.v < b.v`,
		before: `
Project Π [v#1] → [v]
└── Select σ [(v#1 < v#3)]
    └── Join ⋈ Cross → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Join ⋈ Inner on (v#1 < v#3) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
	}, {
		// Above a LEFT join the filter sees NULL-extended rows; inside its
		// condition it would not.
		name:  "left join keeps the filter above",
		query: `SELECT a.v FROM a LEFT JOIN b ON a.k = b.k WHERE a.v < b.v`,
		before: `
Project Π [v#1] → [v]
└── Select σ [(v#1 < v#3)]
    └── Join ⋈ Left on (k#0 = k#2) → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Select σ [(v#1 < v#3)]
    └── Join ⋈ Left on (k#0 = k#2) → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
	}, {
		name:  "conjunct with a subplan stays",
		query: `SELECT a.v FROM a, b WHERE a.k = b.k AND a.v + b.v IN (SELECT v FROM c)`,
		before: `
Project Π [v#1] → [v]
└── Select σ [((k#0 = k#2) AND (v#1 + v#3) IN (subplan))]
    └── Join ⋈ Cross → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
		after: `
Project Π [v#1] → [v]
└── Select σ [(v#1 + v#3) IN (subplan)]
    └── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
        ├── Scan a [k, v]
        └── Scan b [k, v]`,
	}, {
		name: "lateral join untouched",
		build: func(t *testing.T, s *storage.Store) algebra.Op {
			j := algebra.NewJoin(algebra.JoinCross, scanOf(t, s, "a"), scanOf(t, s, "b"), nil)
			j.Lateral = true
			return &algebra.Select{Input: j, Cond: eq(col(0, "k"), col(2, "k"))}
		},
		before: `
Select σ [(k#0 = k#2)]
└── Join ⋈ Cross → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
		after: `
Select σ [(k#0 = k#2)]
└── Join ⋈ Cross → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
	}})
}

// TestBuildSide: a hash join whose right input is estimated more than twice
// the size of its left is commuted, and the column order restored above it.
func TestBuildSide(t *testing.T) {
	handBuilt := func(kind algebra.JoinKind, lateral bool) func(*testing.T, *storage.Store) algebra.Op {
		return func(t *testing.T, s *storage.Store) algebra.Op {
			j := algebra.NewJoin(kind, scanOf(t, s, "small"), scanOf(t, s, "big"), eq(col(0, "k"), col(2, "k")))
			j.Lateral = lateral
			return j
		}
	}
	runPlanCases(t, []planCase{{
		name:  "inner",
		query: `SELECT s.v, g.v FROM small s JOIN big g ON s.k = g.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
		after: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Inner on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		name:  "left becomes right",
		query: `SELECT s.v, g.v FROM small s LEFT JOIN big g ON s.k = g.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Left on (k#0 = k#2) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
		after: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Right on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		name:  "right becomes left",
		query: `SELECT s.v, g.v FROM small s RIGHT JOIN big g ON s.k = g.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Right on (k#0 = k#2) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
		after: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Left on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		name:  "full stays full",
		query: `SELECT s.v, g.v FROM small s FULL JOIN big g ON s.k = g.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Full on (k#0 = k#2) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
		after: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Full on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		// No projection above to merge into: the one that restores the
		// column order stays, and the join below it emits through it.
		name:  "bare join gets the restoring projection",
		build: handBuilt(algebra.JoinInner, false),
		before: `
Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
		after: `
Project Π [k#2, v#3, k#0, v#1] → [k, v, k, v]
└── Join ⋈ Inner on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big [k, v]
    └── Scan small [k, v]`,
	}, {
		name:  "smaller input already builds",
		query: `SELECT s.v, g.v FROM big g JOIN small s ON s.k = g.k`,
		before: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Inner on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
		after: `
Project Π [v#3, v#1] → [v, v]
└── Join ⋈ Inner on (k#2 = k#0) → [k, v, k, v]
    ├── Scan big AS g [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		// 10 rows against 8: the estimate decides nothing under the 2x margin.
		name:  "ratio under 2x",
		query: `SELECT a.v, s.v FROM a JOIN small s ON a.k = s.k`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan small AS s [k, v]`,
		after: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan small AS s [k, v]`,
	}, {
		name:  "semi",
		build: handBuilt(algebra.JoinSemi, false),
		before: `
Join ⋈ Semi on (k#0 = k#2) → [k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
		after: `
Join ⋈ Semi on (k#0 = k#2) → [k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
	}, {
		name:  "anti",
		build: handBuilt(algebra.JoinAnti, false),
		before: `
Join ⋈ Anti on (k#0 = k#2) → [k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
		after: `
Join ⋈ Anti on (k#0 = k#2) → [k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
	}, {
		name:  "lateral",
		build: handBuilt(algebra.JoinInner, true),
		before: `
Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
		after: `
Join ⋈ Inner on (k#0 = k#2) → [k, v, k, v]
├── Scan small [k, v]
└── Scan big [k, v]`,
	}, {
		// Only hash joins have a build side worth choosing.
		name:  "no equi key",
		query: `SELECT s.v, g.v FROM small s JOIN big g ON s.v < g.v`,
		before: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (v#1 < v#3) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
		after: `
Project Π [v#1, v#3] → [v, v]
└── Join ⋈ Inner on (v#1 < v#3) → [k, v, k, v]
    ├── Scan small AS s [k, v]
    └── Scan big AS g [k, v]`,
	}})
}

// TestCJoinHasNoKeylessJoin: the comma join of the repository's benchmark
// (class CJOIN), plain and under SELECT PROVENANCE, plans without a cross
// product — every non-lateral join left in the plan has an equi key.
func TestCJoinHasNoKeylessJoin(t *testing.T) {
	s := storage.NewStore()
	for name, cols := range map[string][]catalog.Column{
		"messages": {{Name: "mid", Type: value.KindInt}, {Name: "text", Type: value.KindString}, {Name: "uid", Type: value.KindInt}},
		"users":    {{Name: "uid", Type: value.KindInt}, {Name: "name", Type: value.KindString}},
	} {
		if _, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	const body = `m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid <= 300 AND u.uid <= 200`
	for _, q := range []string{"SELECT " + body, "SELECT PROVENANCE " + body} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		an := analyzer.New(s.Catalog())
		an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
			return core.NewRewriter(core.DefaultOptions()).Rewrite(req.Input)
		}
		raw, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		keyless := func(op algebra.Op) (n int) {
			algebra.Walk(op, func(op algebra.Op) {
				if j, ok := op.(*algebra.Join); ok && !j.Lateral {
					if equi, _ := joinConjuncts(j); equi == 0 {
						n++
					}
				}
			})
			return n
		}
		opt := New(s.Catalog()).Optimize(raw)
		if keyless(raw) != 1 || keyless(opt) != 0 {
			t.Errorf("%s: %d key-less joins before Optimize (want 1), %d after (want 0):\n%s",
				q, keyless(raw), keyless(opt), algebra.Tree(opt))
		}
	}
}

// TestEstimateJoinCondition: only an equi key divides the pair count by the
// bigger input; every other conjunct of the condition filters like a WHERE.
func TestEstimateJoinCondition(t *testing.T) {
	s := joinEnv(t)
	p := New(s.Catalog())
	for _, c := range []struct {
		q    string
		want float64
	}{
		{`SELECT 1 FROM small s JOIN big g ON s.k = g.k`, 10},                               // 10·400 / 400
		{`SELECT 1 FROM small s JOIN big g ON s.k = g.k AND s.v < g.v`, 2.5},                // one residual conjunct
		{`SELECT 1 FROM small s JOIN big g ON s.k = g.k AND s.v < g.v AND g.v <> 3`, 0.625}, // two
		{`SELECT 1 FROM small s JOIN big g ON s.v < g.v`, 1000},                             // no equi key: 10·400 · ¼
		{`SELECT 1 FROM small s JOIN big g ON s.v < g.v AND s.k <> g.k`, 250},               // 10·400 · ¼ · ¼
		{`SELECT 1 FROM small s, big g`, 4000},                                              // no condition
		{`SELECT 1 FROM small s LEFT JOIN big g ON s.k = g.k AND s.v < g.v`, 10},            // floored at the preserved side
		{`SELECT 1 FROM small s RIGHT JOIN big g ON s.v < g.v`, 1000},
		{`SELECT 1 FROM small s RIGHT JOIN big g ON s.k = g.k AND s.v < g.v`, 400},
		{`SELECT 1 FROM small s FULL JOIN big g ON s.k = g.k`, 410},
	} {
		// The estimate is of the plan as written: Optimize would push and
		// commute, which must not change what the rule says.
		if got := p.EstimateRows(planOf(t, s, c.q)); got != c.want {
			t.Errorf("%s: estimate %v, want %v", c.q, got, c.want)
		}
	}
}

// TestColumnMapsMoveAboveJoins: a projection under a join that only repeats
// and rearranges its input's columns — what the provenance rewrite puts over
// every base relation — moves above the join, where the join emits through
// it, so its rows are never built. One that drops a column, or computes one,
// stays; so does any under a semi, anti or lateral join.
func TestColumnMapsMoveAboveJoins(t *testing.T) {
	// dup is the provenance rewrite of a base relation: its attributes, then
	// the same attributes again.
	dup := func(in algebra.Op) algebra.Op {
		return algebra.NewProject(in, []algebra.Expr{col(0, "k"), col(1, "v"), col(0, "k"), col(1, "v")},
			[]string{"k", "v", "prov_k", "prov_v"})
	}
	handBuilt := func(kind algebra.JoinKind, lateral bool, left, right func(algebra.Op) algebra.Op, cond algebra.Expr) func(*testing.T, *storage.Store) algebra.Op {
		return func(t *testing.T, s *storage.Store) algebra.Op {
			j := algebra.NewJoin(kind, left(scanOf(t, s, "a")), right(scanOf(t, s, "b")), cond)
			j.Lateral = lateral
			return j
		}
	}
	same := func(in algebra.Op) algebra.Op { return in }
	runPlanCases(t, []planCase{{
		name: "provenance of an aggregate",
		build: func(t *testing.T, s *storage.Store) algebra.Op {
			st, err := sql.Parse(`SELECT PROVENANCE k, count(*) FROM a WHERE v > 2 GROUP BY k`)
			if err != nil {
				t.Fatal(err)
			}
			an := analyzer.New(s.Catalog())
			an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
				return core.NewRewriter(core.DefaultOptions()).Rewrite(req.Input)
			}
			raw, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		},
		before: `
ProvenanceGiven
└── Project Π [k#0, count#1, prov_public_a_k#2, prov_public_a_v#3] → [k, count, prov_public_a_k*, prov_public_a_v*]
    └── Project Π [k#0, count#1, prov_public_a_k#4, prov_public_a_v#5] → [k, count, prov_public_a_k*, prov_public_a_v*]
        └── Join ⋈ Left on (k#0 IS NOT DISTINCT FROM k#2) → [k, count, k, v, prov_public_a_k*, prov_public_a_v*]
            ├── Aggregate α group=[k#0] aggs=[count(*)]
            │   └── Select σ [(v#1 > 2)]
            │       └── Scan a [k, v]
            └── Select σ [(v#1 > 2)]
                └── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_public_a_k*, prov_public_a_v*]
                    └── Scan a [k, v]`,
		after: `
ProvenanceGiven
└── Project Π [k#0, count#1, prov_public_a_k#2, prov_public_a_v#3] → [k, count, prov_public_a_k*, prov_public_a_v*]
    └── Join ⋈ Left on (k#0 IS NOT DISTINCT FROM k#2) → [k, count, k, v]
        ├── Aggregate α group=[k#0] aggs=[count(*)]
        │   └── Select σ [(v#1 > 2)]
        │       └── Scan a [k, v]
        └── Select σ [(v#1 > 2)]
            └── Scan a [k, v]`,
	}, {
		name:  "left input",
		build: handBuilt(algebra.JoinInner, false, dup, same, eq(col(2, "prov_k"), col(4, "k"))),
		before: `
Join ⋈ Inner on (prov_k#2 = k#4) → [k, v, prov_k, prov_v, k, v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
		after: `
Project Π [k#0, v#1, prov_k#0, prov_v#1, k#2, v#3] → [k, v, prov_k, prov_v, k, v]
└── Join ⋈ Inner on (prov_k#0 = k#2) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
	}, {
		name:  "both inputs of an outer join",
		build: handBuilt(algebra.JoinLeft, false, dup, dup, eq(col(3, "prov_v"), col(5, "v"))),
		before: `
Join ⋈ Left on (prov_v#3 = v#5) → [k, v, prov_k, prov_v, k, v, prov_k, prov_v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
    └── Scan b [k, v]`,
		after: `
Project Π [k#0, v#1, prov_k#0, prov_v#1, k#2, v#3, prov_k#2, prov_v#3] → [k, v, prov_k, prov_v, k, v, prov_k, prov_v]
└── Join ⋈ Left on (prov_v#1 = v#3) → [k, v, k, v]
    ├── Scan a [k, v]
    └── Scan b [k, v]`,
	}, {
		name: "a map that drops a column stays",
		build: handBuilt(algebra.JoinInner, false, func(in algebra.Op) algebra.Op {
			return algebra.NewProject(in, []algebra.Expr{col(1, "v")}, []string{"v"})
		}, same, eq(col(0, "v"), col(2, "v"))),
		before: `
Join ⋈ Inner on (v#0 = v#2) → [v, k, v]
├── Project Π [v#1] → [v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
		after: `
Join ⋈ Inner on (v#0 = v#2) → [v, k, v]
├── Project Π [v#1] → [v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
	}, {
		name: "a computed column stays",
		build: handBuilt(algebra.JoinInner, false, func(in algebra.Op) algebra.Op {
			return algebra.NewProject(in, []algebra.Expr{col(0, "k"), &algebra.Bin{Op: sql.OpAdd, L: col(1, "v"), R: col(0, "k")}}, []string{"k", "kv"})
		}, same, eq(col(0, "k"), col(2, "k"))),
		before: `
Join ⋈ Inner on (k#0 = k#2) → [k, kv, k, v]
├── Project Π [k#0, (v#1 + k#0)] → [k, kv]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
		after: `
Join ⋈ Inner on (k#0 = k#2) → [k, kv, k, v]
├── Project Π [k#0, (v#1 + k#0)] → [k, kv]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
	}, {
		name:  "semi join",
		build: handBuilt(algebra.JoinSemi, false, dup, same, eq(col(2, "prov_k"), col(4, "k"))),
		before: `
Join ⋈ Semi on (prov_k#2 = k#4) → [k, v, prov_k, prov_v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
		after: `
Join ⋈ Semi on (prov_k#2 = k#4) → [k, v, prov_k, prov_v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
	}, {
		name:  "lateral join",
		build: handBuilt(algebra.JoinInner, true, dup, same, eq(col(2, "prov_k"), col(4, "k"))),
		before: `
Join ⋈ Inner on (prov_k#2 = k#4) → [k, v, prov_k, prov_v, k, v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
		after: `
Join ⋈ Inner on (prov_k#2 = k#4) → [k, v, prov_k, prov_v, k, v]
├── Project Π [k#0, v#1, k#0, v#1] → [k, v, prov_k, prov_v]
│   └── Scan a [k, v]
└── Scan b [k, v]`,
	}})
}
