package core

import (
	"sort"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/catalog"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// testEnv builds a store with the paper's forum tables plus duplicate-heavy
// table d for distinct/set tests.
func testEnv(t *testing.T) *storage.Store {
	t.Helper()
	s := storage.NewStore()
	mk := func(name string, cols []catalog.Column, rows []value.Row) {
		tab, err := s.CreateTable(&catalog.TableDef{Name: name, Columns: cols})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	i, str := value.NewInt, value.NewString
	mk("messages", []catalog.Column{
		{Name: "mid", Type: value.KindInt}, {Name: "text", Type: value.KindString}, {Name: "uid", Type: value.KindInt},
	}, []value.Row{
		{i(1), str("lorem"), i(3)}, {i(4), str("hi"), i(2)},
	})
	mk("imports", []catalog.Column{
		{Name: "mid", Type: value.KindInt}, {Name: "text", Type: value.KindString}, {Name: "origin", Type: value.KindString},
	}, []value.Row{
		{i(2), str("hello"), str("superForum")}, {i(3), str("dont"), str("HiBoard")},
	})
	mk("approved", []catalog.Column{
		{Name: "uid", Type: value.KindInt}, {Name: "mid", Type: value.KindInt},
	}, []value.Row{
		{i(2), i(2)}, {i(1), i(4)}, {i(2), i(4)}, {i(3), i(4)},
	})
	mk("d", []catalog.Column{
		{Name: "x", Type: value.KindInt},
	}, []value.Row{
		{i(1)}, {i(1)}, {i(2)}, {value.Null}, {value.Null},
	})
	return s
}

// plan analyzes a query without provenance markers.
func plan(t *testing.T, s *storage.Store, q string) algebra.Op {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	an := analyzer.New(s.Catalog())
	an.StripProvenance = true
	op, err := an.AnalyzeSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("analyze(%q): %v", q, err)
	}
	return op
}

// rewriteQ rewrites the plan of q with the given options.
func rewriteQ(t *testing.T, s *storage.Store, q string, opts Options) algebra.Op {
	t.Helper()
	rw := NewRewriter(opts)
	out, err := rw.Rewrite(plan(t, s, q))
	if err != nil {
		t.Fatalf("rewrite(%q): %v", q, err)
	}
	return out
}

// sortedRows runs the plan and returns canonical string rows for multiset
// comparison.
func sortedRows(t *testing.T, s *storage.Store, op algebra.Op) []string {
	t.Helper()
	res, err := executor.Run(executor.NewContext(s), op)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPrefixInvariant verifies the rewriter's central invariant on a battery
// of query shapes: the rewritten schema preserves every original column at
// its position, and everything appended is a provenance attribute.
func TestPrefixInvariant(t *testing.T) {
	s := testEnv(t)
	queries := []string{
		`SELECT mid FROM messages`,
		`SELECT mid, text FROM messages WHERE uid > 1`,
		`SELECT m.mid, a.uid FROM messages m JOIN approved a ON m.mid = a.mid`,
		`SELECT m.text FROM messages m LEFT JOIN approved a ON m.mid = a.mid`,
		`SELECT count(*), uid FROM approved GROUP BY uid`,
		`SELECT sum(uid) FROM approved`,
		`SELECT DISTINCT x FROM d`,
		`SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
		`SELECT mid FROM messages INTERSECT SELECT mid FROM approved`,
		`SELECT mid FROM messages EXCEPT SELECT mid FROM approved`,
		`SELECT mid FROM messages ORDER BY mid LIMIT 1`,
		`SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)`,
		`SELECT mid FROM messages m WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)`,
		`SELECT mid FROM messages WHERE uid = (SELECT max(uid) FROM approved)`,
	}
	for _, q := range queries {
		orig := plan(t, s, q)
		rew := rewriteQ(t, s, q, DefaultOptions())
		oSch, rSch := orig.Schema(), rew.Schema()
		if len(rSch) < len(oSch) {
			t.Errorf("%q: rewritten schema narrower than original", q)
			continue
		}
		for i, c := range oSch {
			if rSch[i].Name != c.Name || rSch[i].Type != c.Type {
				t.Errorf("%q: column %d changed: %v -> %v", q, i, c, rSch[i])
			}
		}
		for i := len(oSch); i < len(rSch); i++ {
			if !rSch[i].IsProv {
				t.Errorf("%q: appended column %d (%s) not flagged as provenance", q, i, rSch[i].Name)
			}
			if !strings.HasPrefix(rSch[i].Name, "prov_") {
				t.Errorf("%q: provenance column name %q", q, rSch[i].Name)
			}
		}
	}
}

// TestOriginalResultPreserved: projecting the rewritten query onto the
// original columns and deduplicating witness replication must reproduce the
// original result as a set.
func TestOriginalResultPreserved(t *testing.T) {
	s := testEnv(t)
	queries := []string{
		`SELECT mid, text FROM messages WHERE uid > 1`,
		`SELECT count(*), uid FROM approved GROUP BY uid`,
		`SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
		`SELECT DISTINCT x FROM d`,
		`SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)`,
	}
	for _, q := range queries {
		orig := plan(t, s, q)
		rew := rewriteQ(t, s, q, DefaultOptions())
		nOrig := len(orig.Schema())
		// Project rewritten onto original columns, distinct both sides.
		stripped := algebra.NewProject(rew, algebra.IdentityExprs(rew.Schema())[:nOrig],
			orig.Schema().Names())
		a := dedup(sortedRows(t, s, &algebra.Distinct{Input: stripped}))
		b := dedup(sortedRows(t, s, &algebra.Distinct{Input: orig}))
		if !equalStrs(a, b) {
			t.Errorf("%q: original rows not preserved\nprov side: %v\norig side: %v", q, a, b)
		}
	}
}

func dedup(xs []string) []string {
	var out []string
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// TestWitnessesExistInBaseRelations: every provenance tuple embedded in a
// rewritten result must actually occur in its base relation.
func TestWitnessesExistInBaseRelations(t *testing.T) {
	s := testEnv(t)
	q := `SELECT count(*), text FROM messages m JOIN approved a ON m.mid = a.mid GROUP BY m.mid, text`
	rew := rewriteQ(t, s, q, DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	sch := res.Schema
	// Group provenance columns by relation instance.
	groups := map[string][]int{}
	for i, c := range sch {
		if c.IsProv {
			groups[c.ProvRel] = append(groups[c.ProvRel], i)
		}
	}
	if len(groups) != 2 {
		t.Fatalf("prov groups = %v", groups)
	}
	baseOf := map[string]string{"messages": "messages", "approved": "approved"}
	for rel, cols := range groups {
		base := baseOf[rel]
		tab := s.Table(base)
		existing := map[string]bool{}
		for _, r := range tab.Snapshot() {
			existing[r.Key()] = true
		}
		for _, row := range res.Rows {
			witness := make(value.Row, len(cols))
			allNull := true
			for j, ci := range cols {
				witness[j] = row[ci]
				if !row[ci].IsNull() {
					allNull = false
				}
			}
			if allNull {
				continue
			}
			if !existing[witness.Key()] {
				t.Errorf("witness %v not found in base relation %s", witness, base)
			}
		}
	}
}

func TestScanRuleNaming(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s, `SELECT mid FROM messages`, DefaultOptions())
	names := rew.Schema().Names()
	want := []string{"mid", "prov_public_messages_mid", "prov_public_messages_text", "prov_public_messages_uid"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v, want %v", names, want)
	}
}

func TestSelfJoinInstanceNaming(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s,
		`SELECT m1.mid FROM messages m1 JOIN messages m2 ON m1.uid = m2.uid`,
		DefaultOptions())
	names := strings.Join(rew.Schema().Names(), ",")
	if !strings.Contains(names, "prov_public_messages_mid") ||
		!strings.Contains(names, "prov_public_messages_1_mid") {
		t.Errorf("self-join provenance names must be numbered: %v", names)
	}
}

func TestCustomSchemaName(t *testing.T) {
	s := testEnv(t)
	opts := DefaultOptions()
	opts.SchemaName = "main"
	rew := rewriteQ(t, s, `SELECT mid FROM messages`, opts)
	if !strings.Contains(rew.Schema().Names()[1], "prov_main_messages") {
		t.Errorf("names = %v", rew.Schema().Names())
	}
}

// TestStrategyEquivalence: alternative rewrite strategies must produce the
// same provenance relation (as a multiset) — they only differ in cost.
func TestStrategyEquivalence(t *testing.T) {
	s := testEnv(t)
	cases := []struct {
		name string
		q    string
		a, b Options
	}{
		{
			name: "union pad vs join",
			q:    `SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
			a:    Options{Set: SetPad, SetForced: true, SchemaName: "public"},
			b:    Options{Set: SetJoin, SetForced: true, SchemaName: "public"},
		},
		{
			name: "union all pad vs join", // join strategy only differs for distinct unions
			q:    `SELECT x FROM d UNION ALL SELECT x FROM d`,
			a:    Options{Set: SetPad, SetForced: true, SchemaName: "public"},
			b:    Options{Set: SetJoin, SetForced: true, SchemaName: "public"},
		},
		{
			name: "agg joingroup vs crossfilter",
			q:    `SELECT count(*), uid FROM approved GROUP BY uid`,
			a:    Options{Agg: AggJoinGroup, AggForced: true, SchemaName: "public"},
			b:    Options{Agg: AggCrossFilter, AggForced: true, SchemaName: "public"},
		},
		{
			name: "distinct pass vs join",
			q:    `SELECT DISTINCT x FROM d`,
			a:    Options{Distinct: DistinctPass, DistinctForced: true, SchemaName: "public"},
			b:    Options{Distinct: DistinctJoin, DistinctForced: true, SchemaName: "public"},
		},
	}
	for _, c := range cases {
		ra := sortedRows(t, s, rewriteQ(t, s, c.q, c.a))
		rb := sortedRows(t, s, rewriteQ(t, s, c.q, c.b))
		if !equalStrs(ra, rb) {
			t.Errorf("%s: strategies disagree\nA: %v\nB: %v", c.name, ra, rb)
		}
	}
}

func TestGroupByNullKeysJoinBack(t *testing.T) {
	s := testEnv(t)
	// d has NULL groups; the join-back must use null-safe equality so the
	// NULL group keeps its witnesses.
	rew := rewriteQ(t, s, `SELECT count(*), x FROM d GROUP BY x`, DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	// 5 input rows → 5 witness rows (2+2+1).
	if len(res.Rows) != 5 {
		t.Errorf("witness rows = %d, want 5: %v", len(res.Rows), res.Rows)
	}
	nullGroupWitnesses := 0
	for _, r := range res.Rows {
		if r[1].IsNull() {
			if r[0].Int() != 2 {
				t.Errorf("NULL group count = %v", r[0])
			}
			if !r[2].IsNull() {
				t.Errorf("NULL group witness = %v", r[2])
			}
			nullGroupWitnesses++
		}
	}
	if nullGroupWitnesses != 2 {
		t.Errorf("NULL group witnesses = %d, want 2", nullGroupWitnesses)
	}
}

func TestScalarAggProvenanceOverEmptyInput(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s, `SELECT count(*) FROM messages WHERE mid > 100`, DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	// count(*) over empty input = one row (0) with NULL provenance.
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, v := range res.Rows[0][1:] {
		if !v.IsNull() {
			t.Errorf("provenance of empty aggregate must be NULL: %v", res.Rows[0])
		}
	}
}

func TestExceptLeftOnlyProvenance(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s, `SELECT mid FROM messages EXCEPT SELECT mid FROM approved`, DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	sch := res.Schema
	// Schema must include both sides' provenance columns.
	var rightCols []int
	for i, c := range sch {
		if c.IsProv && c.ProvRel == "approved" {
			rightCols = append(rightCols, i)
		}
	}
	if len(rightCols) != 2 {
		t.Fatalf("right provenance columns missing: %v", sch.Names())
	}
	// messages mids: 1,4; approved mids: 2,4 → except = {1}.
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, ci := range rightCols {
		if !res.Rows[0][ci].IsNull() {
			t.Errorf("right-side provenance must be NULL under PI-CS difference")
		}
	}
}

func TestIntersectBothSidesProvenance(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s, `SELECT mid FROM messages INTERSECT SELECT mid FROM approved`, DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	// intersect = {4}; approved has 3 rows with mid=4 → 1 (messages) × 3 = 3 witness rows.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Int() != 4 {
			t.Errorf("row = %v", r)
		}
	}
}

func TestCopySemanticsMasking(t *testing.T) {
	s := testEnv(t)
	opts := DefaultOptions()
	opts.Semantics = CopySemantics
	// q1: mid and text are copied; uid (messages) and origin (imports) are not.
	rew := rewriteQ(t, s,
		`SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`, opts)
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	sch := res.Schema
	colIdx := func(name string) int {
		for i, c := range sch {
			if c.Name == name {
				return i
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	uidCol := colIdx("prov_public_messages_uid")
	originCol := colIdx("prov_public_imports_origin")
	midCol := colIdx("prov_public_messages_mid")
	sawMid := false
	for _, r := range res.Rows {
		if !r[uidCol].IsNull() {
			t.Errorf("uid must be masked under COPY: %v", r)
		}
		if !r[originCol].IsNull() {
			t.Errorf("origin must be masked under COPY: %v", r)
		}
		if !r[midCol].IsNull() {
			sawMid = true
		}
	}
	if !sawMid {
		t.Error("copied attribute mid must survive COPY masking")
	}
}

func TestCopyAggregatesMaskAll(t *testing.T) {
	s := testEnv(t)
	opts := DefaultOptions()
	opts.Semantics = CopySemantics
	// Aggregate outputs copy nothing; group col uid is copied.
	rew := rewriteQ(t, s, `SELECT count(*), uid FROM approved GROUP BY uid`, opts)
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	sch := res.Schema
	for i, c := range sch {
		if !c.IsProv {
			continue
		}
		for _, r := range res.Rows {
			isUID := strings.HasSuffix(c.Name, "_uid")
			if isUID {
				continue // copied via group-by column
			}
			if !r[i].IsNull() {
				t.Errorf("non-copied provenance %s must be NULL, got %v", c.Name, r[i])
			}
		}
	}
}

func TestBaseRelRule(t *testing.T) {
	s := testEnv(t)
	orig := plan(t, s, `SELECT mid FROM messages WHERE uid > 1`)
	wrapped := &algebra.BaseRel{Input: orig, RelName: "myview"}
	rw := NewRewriter(DefaultOptions())
	out, err := rw.Rewrite(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	names := out.Schema().Names()
	if len(names) != 2 || names[1] != "prov_public_myview_mid" {
		t.Errorf("names = %v", names)
	}
}

func TestProvDoneRule(t *testing.T) {
	s := testEnv(t)
	orig := plan(t, s, `SELECT mid, uid FROM messages`)
	// Flag uid as external provenance.
	proj := algebra.NewProject(orig, algebra.IdentityExprs(orig.Schema()), orig.Schema().Names())
	copy(proj.Sch, orig.Schema())
	proj.Sch[1].IsProv = true
	proj.Sch[1].ProvRel = "ext"
	done := &algebra.ProvDone{Input: proj}
	rw := NewRewriter(DefaultOptions())
	out, err := rw.Rewrite(done)
	if err != nil {
		t.Fatal(err)
	}
	// No new columns: the given provenance is the provenance.
	if len(out.Schema()) != 2 {
		t.Errorf("schema = %v", out.Schema().Names())
	}
}

func TestUnsupportedShapes(t *testing.T) {
	s := testEnv(t)
	rw := NewRewriter(DefaultOptions())
	// Subquery in the select list.
	p := plan(t, s, `SELECT (SELECT max(mid) FROM approved) FROM messages`)
	if _, err := rw.Rewrite(p); err == nil ||
		!strings.Contains(err.Error(), "select list") {
		t.Errorf("select-list subquery: err = %v", err)
	}
}

func TestNegatedSubqueriesKeepFilter(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s,
		`SELECT mid FROM messages WHERE mid NOT IN (SELECT mid FROM approved)`,
		DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	// messages mids {1,4}, approved {2,4} → NOT IN leaves {1}; provenance
	// only from messages.
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, c := range res.Schema {
		if c.IsProv && c.ProvRel == "approved" {
			t.Error("NOT IN must not contribute subquery provenance")
		}
	}
}

func TestCorrelatedExistsProvenance(t *testing.T) {
	s := testEnv(t)
	rew := rewriteQ(t, s,
		`SELECT mid FROM messages m WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)`,
		DefaultOptions())
	res, err := executor.Run(executor.NewContext(s), rew)
	if err != nil {
		t.Fatal(err)
	}
	// mid=4 has 3 approvals → 3 witness rows.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	foundApproved := false
	for _, c := range res.Schema {
		if c.IsProv && c.ProvRel == "approved" {
			foundApproved = true
		}
	}
	if !foundApproved {
		t.Error("EXISTS subquery provenance missing")
	}
}

func TestDecisionsRecorded(t *testing.T) {
	s := testEnv(t)
	rw := NewRewriter(Options{Set: SetJoin, SetForced: true, SchemaName: "public"})
	p := plan(t, s, `SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`)
	if _, err := rw.Rewrite(p); err != nil {
		t.Fatal(err)
	}
	if len(rw.Decisions) == 0 || !strings.Contains(strings.Join(rw.Decisions, ";"), "SetJoin") {
		t.Errorf("decisions = %v", rw.Decisions)
	}
}

// TestCostBasedChooser drives the cost-based strategy selection with a
// controlled estimator: tiny inputs pick the cross-filter aggregation
// rewrite, larger ones the join-back; shrinking set operations pick the
// join-back strategy.
func TestCostBasedChooser(t *testing.T) {
	s := testEnv(t)

	small := func(op algebra.Op) float64 { return 2 }
	large := func(op algebra.Op) float64 { return 10000 }

	aggQ := `SELECT count(*), uid FROM approved GROUP BY uid`
	rwSmall := NewRewriter(Options{Mode: ModeCost, Estimator: small, SchemaName: "public"})
	if _, err := rwSmall.Rewrite(plan(t, s, aggQ)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(rwSmall.Decisions, ";"), "AggCrossFilter") {
		t.Errorf("tiny estimate should pick AggCrossFilter: %v", rwSmall.Decisions)
	}
	rwLarge := NewRewriter(Options{Mode: ModeCost, Estimator: large, SchemaName: "public"})
	if _, err := rwLarge.Rewrite(plan(t, s, aggQ)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(rwLarge.Decisions, ";"), "AggJoinGroup") {
		t.Errorf("large estimate should pick AggJoinGroup: %v", rwLarge.Decisions)
	}

	// Set operation: a distinct union whose result is estimated much smaller
	// than its branches favors the join-back strategy.
	unionQ := `SELECT mid FROM messages UNION SELECT mid FROM imports`
	shrinking := func(op algebra.Op) float64 {
		if _, ok := op.(*algebra.SetOp); ok {
			return 1
		}
		return 1000
	}
	rwSet := NewRewriter(Options{Mode: ModeCost, Estimator: shrinking, SchemaName: "public"})
	if _, err := rwSet.Rewrite(plan(t, s, unionQ)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(rwSet.Decisions, ";"), "SetJoin") {
		t.Errorf("shrinking union should pick SetJoin: %v", rwSet.Decisions)
	}
}

func TestSemanticsString(t *testing.T) {
	if InfluenceSemantics.String() != "INFLUENCE" ||
		CopySemantics.String() != "COPY PARTIAL" ||
		CopyCompleteSemantics.String() != "COPY COMPLETE" {
		t.Error("Semantics.String")
	}
}

// TestCopyCompleteMasksCrossBranch: under COPY COMPLETE an attribute must be
// copied on every derivation path; a union branch copy is only partial, so
// everything is masked, while COPY (PARTIAL) keeps the branch copies.
func TestCopyCompleteMasksCrossBranch(t *testing.T) {
	s := testEnv(t)
	q := `SELECT mid FROM messages UNION SELECT mid FROM imports`

	run := func(sem Semantics) (int, int) {
		opts := DefaultOptions()
		opts.Semantics = sem
		rew := rewriteQ(t, s, q, opts)
		res, err := executor.Run(executor.NewContext(s), rew)
		if err != nil {
			t.Fatal(err)
		}
		nonNull, total := 0, 0
		for i, c := range res.Schema {
			if !c.IsProv {
				continue
			}
			for _, r := range res.Rows {
				total++
				if !r[i].IsNull() {
					nonNull++
				}
			}
		}
		return nonNull, total
	}
	partialNonNull, _ := run(CopySemantics)
	completeNonNull, _ := run(CopyCompleteSemantics)
	if partialNonNull == 0 {
		t.Error("COPY PARTIAL must keep branch copies")
	}
	if completeNonNull != 0 {
		t.Errorf("COPY COMPLETE must mask cross-branch copies, %d values survive", completeNonNull)
	}
}

func TestProvAttrName(t *testing.T) {
	if got := ProvAttrName("public", "s", "i"); got != "prov_public_s_i" {
		t.Errorf("got %q", got)
	}
}
