package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// goldenQueries is the corpus of TestGoldenRewrites: every rewrite rule, each
// subquery form the selection rule de-correlates or keeps as a filter, every
// join kind, and the provenance markers of SQL-PLE. The queries run against
// testEnv; nested SELECT PROVENANCE blocks are rewritten where they stand, as
// the engine does.
var goldenQueries = []string{
	// Base relations and the SQL-PLE markers.
	`SELECT PROVENANCE mid, text, uid FROM messages`,
	`SELECT PROVENANCE upper(text) AS t, mid + 1 AS m, CASE WHEN uid > 2 THEN 'hi' ELSE 'lo' END AS c FROM messages`,
	`SELECT PROVENANCE text FROM messages BASERELATION WHERE uid > 1`,
	`SELECT PROVENANCE s.uid, s.c FROM (SELECT uid, count(*) AS c FROM approved GROUP BY uid) AS s BASERELATION WHERE s.c > 1`,
	`SELECT PROVENANCE mid, uid FROM messages PROVENANCE (uid)`,
	`SELECT PROVENANCE m.mid, a.uid FROM messages m PROVENANCE (text) JOIN approved a ON m.mid = a.mid`,
	`SELECT PROVENANCE s.mid FROM (SELECT PROVENANCE mid FROM messages WHERE uid = 3) AS s`,
	`SELECT PROVENANCE * FROM (SELECT PROVENANCE mid FROM messages) AS s JOIN approved a ON s.mid = a.mid`,
	`SELECT PROVENANCE count(*), s.mid FROM (SELECT PROVENANCE mid FROM imports) AS s GROUP BY s.mid`,
	`SELECT PROVENANCE * FROM (VALUES (1, 'x'), (2, 'y')) AS v`,
	// Selections with subqueries: de-correlated, negated and universal forms.
	`SELECT PROVENANCE mid FROM messages WHERE EXISTS (SELECT 1 FROM approved WHERE uid = 2)`,
	`SELECT PROVENANCE mid FROM messages m WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)`,
	`SELECT PROVENANCE mid FROM messages m WHERE NOT EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)`,
	`SELECT PROVENANCE mid FROM messages WHERE mid IN (SELECT mid FROM approved)`,
	`SELECT PROVENANCE mid FROM messages m WHERE mid IN (SELECT a.mid FROM approved a WHERE a.uid = m.uid)`,
	`SELECT PROVENANCE mid FROM messages WHERE mid NOT IN (SELECT mid FROM approved)`,
	`SELECT PROVENANCE mid FROM messages WHERE mid > ANY (SELECT mid FROM imports)`,
	`SELECT PROVENANCE mid FROM messages m WHERE m.uid = ANY (SELECT a.uid FROM approved a WHERE a.mid = m.mid)`,
	`SELECT PROVENANCE mid FROM messages WHERE NOT (mid = ANY (SELECT mid FROM approved))`,
	`SELECT PROVENANCE mid FROM messages WHERE mid >= ALL (SELECT mid FROM approved)`,
	`SELECT PROVENANCE mid FROM messages WHERE uid = (SELECT max(uid) FROM approved)`,
	`SELECT PROVENANCE mid FROM messages WHERE (SELECT min(mid) FROM imports) < mid`,
	`SELECT PROVENANCE mid FROM messages m WHERE mid = (SELECT max(a.mid) FROM approved a WHERE a.uid = m.uid)`,
	`SELECT PROVENANCE mid, text FROM messages m WHERE uid > 1 AND mid IN (SELECT mid FROM approved) AND NOT EXISTS (SELECT 1 FROM imports i WHERE i.mid = m.mid)`,
	// Joins of every kind.
	`SELECT PROVENANCE m.mid, a.uid FROM messages m JOIN approved a ON m.mid = a.mid`,
	`SELECT PROVENANCE m.text FROM messages m LEFT JOIN approved a ON m.mid = a.mid`,
	`SELECT PROVENANCE m.text, a.uid FROM messages m RIGHT JOIN approved a ON m.mid = a.mid AND a.uid > 1`,
	`SELECT PROVENANCE m.mid, i.mid FROM messages m FULL JOIN imports i ON m.mid = i.mid`,
	`SELECT PROVENANCE m.mid, d.x FROM messages m CROSS JOIN d`,
	`SELECT PROVENANCE m.text, a.uid FROM messages m, approved a WHERE m.mid = a.mid AND a.uid < 3`,
	`SELECT PROVENANCE m1.mid FROM messages m1 JOIN messages m2 ON m1.uid = m2.uid`,
	`SELECT PROVENANCE m.mid, i.origin FROM messages m JOIN approved a USING (mid) JOIN imports i ON i.mid < a.mid`,
	// Aggregation.
	`SELECT PROVENANCE count(*) FROM messages`,
	`SELECT PROVENANCE sum(uid), max(mid) FROM approved WHERE uid > 5`,
	`SELECT PROVENANCE count(*), uid FROM approved GROUP BY uid`,
	`SELECT PROVENANCE uid % 2 AS g, count(DISTINCT mid) FROM approved GROUP BY uid % 2 HAVING count(*) > 1`,
	`SELECT PROVENANCE count(*), x FROM d GROUP BY x`,
	`SELECT PROVENANCE count(*), text FROM messages m JOIN approved a ON m.mid = a.mid GROUP BY m.mid, text`,
	`SELECT PROVENANCE g, count(*) FROM (SELECT count(*) AS c, uid % 2 AS g FROM approved GROUP BY uid % 2) AS s GROUP BY g`,
	// Duplicate elimination.
	`SELECT PROVENANCE DISTINCT x FROM d`,
	`SELECT PROVENANCE DISTINCT a.uid FROM approved a JOIN messages m ON a.mid = m.mid`,
	// Set operations, ALL and DISTINCT.
	`SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`,
	`SELECT PROVENANCE x FROM d UNION ALL SELECT x FROM d`,
	`SELECT PROVENANCE mid FROM messages INTERSECT SELECT mid FROM approved`,
	`SELECT PROVENANCE x FROM d INTERSECT ALL SELECT x FROM d`,
	`SELECT PROVENANCE mid FROM messages EXCEPT SELECT mid FROM approved`,
	`SELECT PROVENANCE x FROM d EXCEPT ALL SELECT x FROM d WHERE x = 1`,
	`SELECT PROVENANCE mid FROM messages UNION SELECT mid FROM imports INTERSECT SELECT mid FROM approved`,
	`SELECT PROVENANCE s.mid FROM (SELECT mid FROM messages EXCEPT SELECT mid FROM imports) AS s WHERE s.mid > 0`,
	// ORDER BY and LIMIT.
	`SELECT PROVENANCE mid, text FROM messages ORDER BY text DESC`,
	`SELECT PROVENANCE mid FROM messages ORDER BY mid LIMIT 1`,
	`SELECT PROVENANCE x FROM d ORDER BY x LIMIT 2 OFFSET 1`,
	`SELECT PROVENANCE count(*), uid FROM approved GROUP BY uid ORDER BY uid DESC LIMIT 2`,
	// Shapes the rewriter refuses.
	`SELECT PROVENANCE (SELECT max(mid) FROM approved) FROM messages`,
}

// goldenEstimate is the cardinality estimator of the cost-based runs: the
// operator count of a subtree, and 1 for a set operation. It is the
// rewriter's decisions the golden file pins, not the planner's estimates, so
// the cost runs get an estimator of their own that takes both branches of
// each choice across the corpus.
func goldenEstimate(op algebra.Op) float64 {
	if _, ok := op.(*algebra.SetOp); ok {
		return 1
	}
	return float64(algebra.CountOps(op))
}

// goldenOptions are the option sets every query is rewritten under: the
// defaults, then each strategy value alone.
var goldenOptions = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"cost", Options{Mode: ModeCost, Estimator: goldenEstimate}},
	{"agg=joingroup", Options{Agg: AggJoinGroup, AggForced: true}},
	{"agg=crossfilter", Options{Agg: AggCrossFilter, AggForced: true}},
	{"set=pad", Options{Set: SetPad, SetForced: true}},
	{"set=join", Options{Set: SetJoin, SetForced: true}},
	{"distinct=pass", Options{Distinct: DistinctPass, DistinctForced: true}},
	{"distinct=join", Options{Distinct: DistinctJoin, DistinctForced: true}},
}

// TestGoldenRewrites rewrites the corpus under every option set and each
// contribution semantics and compares the whole output — operator trees with
// every expression in full, every operator's columns with their provenance
// metadata, and the recorded decisions — with testdata/rewrites.golden. The
// file was generated before the rules were last restructured: a rule that
// emits anything else, however equivalent, fails here.
func TestGoldenRewrites(t *testing.T) {
	want, err := os.ReadFile("testdata/rewrites.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRewrites(t, testEnv(t))
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			head := ""
			for j := i; j >= 0 && j < len(w); j-- {
				if strings.HasPrefix(w[j], "=== ") {
					head = w[j]
					break
				}
			}
			t.Fatalf("rewrites differ from testdata/rewrites.golden at line %d, under %s\n got: %s\nwant: %s", i+1, head, gl, wl)
		}
	}
}

// goldenRewrites renders the rewrite of every corpus query and the lateral
// join plan under every option set and semantics. A rendering equal to one
// already printed for the same query is printed as a reference to it.
func goldenRewrites(t *testing.T, s *storage.Store) string {
	var b strings.Builder
	sems := []Semantics{InfluenceSemantics, CopySemantics, CopyCompleteSemantics}
	for qi, q := range append(goldenQueries, "lateral join plan") {
		fmt.Fprintf(&b, "### %d: %s\n", qi+1, q)
		seen := map[string]string{}
		for _, sem := range sems {
			for _, o := range goldenOptions {
				opts := o.opts
				opts.Semantics = sem
				label := fmt.Sprintf("%s %s", o.name, sem)
				var out string
				if qi == len(goldenQueries) {
					out = renderPlanRewrite(s, opts)
				} else {
					out = renderRewrite(t, s, q, opts)
				}
				fmt.Fprintf(&b, "=== %d %s\n", qi+1, label)
				if prev, ok := seen[out]; ok {
					fmt.Fprintf(&b, "same as %s\n", prev)
					continue
				}
				seen[out] = label
				b.WriteString(out)
			}
		}
	}
	return b.String()
}

// renderRewrite analyzes q with the rewriter hooked in, as the engine does,
// and renders the plan and the decisions of every rewrite it ran.
func renderRewrite(t *testing.T, s *storage.Store, q string, opts Options) string {
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	var decisions []string
	an := analyzer.New(s.Catalog())
	an.Rewrite = func(req analyzer.ProvRequest) (algebra.Op, error) {
		rw := NewRewriter(opts)
		out, err := rw.Rewrite(req.Input)
		decisions = append(decisions, rw.Decisions...)
		return out, err
	}
	op, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
	return renderResult(op, err, decisions)
}

// renderPlanRewrite rewrites a lateral join, which SQL reaches only through
// the rewriter: messages m ⋈ lateral σ[a.mid = m.mid](approved a).
func renderPlanRewrite(s *storage.Store, opts Options) string {
	scan := func(table string) *algebra.Scan {
		def := s.Catalog().Table(table)
		sch := make(algebra.Schema, len(def.Columns))
		for i, c := range def.Columns {
			sch[i] = algebra.Column{Name: c.Name, Table: table, Type: c.Type}
		}
		return &algebra.Scan{Table: table, Alias: table, Sch: sch}
	}
	right := &algebra.Select{Input: scan("approved"), Cond: &algebra.Bin{Op: sql.OpEq,
		L: &algebra.ColIdx{Idx: 1, Typ: value.KindInt, Name: "mid"},
		R: &algebra.OuterRef{Idx: 0, Typ: value.KindInt, Name: "mid"}}}
	join := algebra.NewJoin(algebra.JoinInner, scan("messages"), right, nil)
	join.Lateral = true
	rw := NewRewriter(opts)
	op, err := rw.Rewrite(join)
	return renderResult(op, err, rw.Decisions)
}

func renderResult(op algebra.Op, err error, decisions []string) string {
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	} else {
		renderOp(&b, op, "")
	}
	for _, d := range decisions {
		fmt.Fprintf(&b, "decision: %s\n", d)
	}
	return b.String()
}

// renderOp prints one operator per line — its type and every field but its
// inputs and schema, expressions in full — then the output columns of an
// operator that holds a schema of its own (the others pass their input's
// on), then its inputs one level deeper.
func renderOp(b *strings.Builder, op algebra.Op, indent string) {
	v := reflect.ValueOf(op).Elem()
	b.WriteString(indent)
	b.WriteString(v.Type().Name())
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if name == "Sch" || f.Type() == reflect.TypeOf((*algebra.Op)(nil)).Elem() {
			continue
		}
		fmt.Fprintf(b, " %s=%s", name, inline(f))
	}
	b.WriteByte('\n')
	if v.FieldByName("Sch").IsValid() {
		fmt.Fprintf(b, "%s→ %s\n", indent, renderSchema(op.Schema()))
	}
	for _, c := range op.Children() {
		renderOp(b, c, indent+"  ")
	}
}

func renderSchema(sch algebra.Schema) string {
	parts := make([]string, len(sch))
	for i, c := range sch {
		p := c.Name + ":" + c.Type.String()
		if c.Table != "" {
			p += "@" + c.Table
		}
		if c.IsProv {
			p += "*"
		}
		if c.ProvRel != "" || c.ProvAttr != "" {
			p += "{" + c.ProvRel + "." + c.ProvAttr + "}"
		}
		parts[i] = p
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// inline renders any value of an algebra tree on one line, every exported
// field included: column references with their type, constants as typed
// literals, a nested plan (a subplan's) as its operators in braces.
func inline(v reflect.Value) string {
	if v.Type() == reflect.TypeOf(algebra.Schema(nil)) {
		return renderSchema(v.Interface().(algebra.Schema))
	}
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return "nil"
		}
		if op, ok := v.Interface().(algebra.Op); ok {
			return inlineOp(op)
		}
		return inline(v.Elem())
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = inline(v.Index(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case reflect.Struct:
		switch x := v.Interface().(type) {
		case value.Value:
			return x.SQLLiteral() + ":" + x.Kind().String()
		case algebra.ColIdx:
			return fmt.Sprintf("%s#%d:%s", x.Name, x.Idx, x.Typ)
		}
		parts := make([]string, 0, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			parts = append(parts, v.Type().Field(i).Name+":"+inline(v.Field(i)))
		}
		return v.Type().Name() + "{" + strings.Join(parts, " ") + "}"
	}
	return fmt.Sprint(v.Interface())
}

func inlineOp(op algebra.Op) string {
	v := reflect.ValueOf(op).Elem()
	parts := []string{}
	for i := 0; i < v.NumField(); i++ {
		parts = append(parts, v.Type().Field(i).Name+":"+inline(v.Field(i)))
	}
	return v.Type().Name() + "{" + strings.Join(parts, " ") + "}"
}
