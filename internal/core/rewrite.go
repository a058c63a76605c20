// Package core implements the paper's primary contribution: the Perm
// provenance rewriter. It transforms a relational algebra query q into a
// provenance query q+ whose result is the original result of q augmented
// with the contributing base-relation tuples as appended provenance
// attributes (named prov_<schema>_<relation>_<attribute>).
//
// The rewrite rules follow the Perm ICDE '09 PI-CS semantics (SQL-PLE
// contribution INFLUENCE) and a static approximation of C-CS (COPY), plus
// the EDBT '09 treatment of nested subqueries via de-correlation into
// lateral joins. Rules are compositional and never inspect how their input's
// provenance attributes were produced, which is what enables external
// provenance and incremental (BASERELATION) computation.
//
// Central invariant: for every operator T, the rewritten T+ preserves the
// positions of all original output columns and only appends provenance
// columns. Every rule relies on this to reuse the original, already-resolved
// expressions unchanged.
//
// The rules, by operator (rewrite dispatches on it):
//   - base relation, and a BASERELATION subtree: rewriteBase
//   - projection Π: rewriteProject
//   - selection σ: rewriteSelect; a positive EXISTS, IN, ANY or scalar
//     subquery becomes a (lateral) join with the rewritten subquery
//     (decorrelateConjunct, joinSubquery), a negated or ALL form stays a
//     filter
//   - join ⋈ of every kind: rewriteJoin
//   - aggregation α: rewriteAgg (AggJoinGroup, AggCrossFilter)
//   - duplicate elimination δ: rewriteDistinct (DistinctPass, DistinctJoin)
//   - union: rewriteUnion (SetPad, SetJoin); intersection: rewriteIntersect;
//     difference: rewriteExcept
//   - ORDER BY τ passes through; LIMIT: rewriteLimit
//   - a subtree that carries its provenance already (PROVENANCE (attrs), a
//     nested SELECT PROVENANCE) passes through untouched
//
// Every rule ends in one projection, built by a layout (layout.go): data
// columns first, provenance after, with the C-CS copies tracked. Aggregation,
// DistinctJoin, SetJoin, intersection, difference and LIMIT share one form,
// op(T) ⋈≐ T⁺, which joinBack builds; Options select among the alternatives
// and applyCopyMask applies the COPY semantics at the root.
package core

import (
	"fmt"
	"slices"

	"perm/internal/algebra"
	"perm/internal/sql"
)

// Semantics selects the contribution semantics of a rewrite.
type Semantics int

// Contribution semantics supported by the rewriter.
const (
	// InfluenceSemantics is PI-CS (Why-provenance flavored): all tuples that
	// influenced the existence of an output tuple.
	InfluenceSemantics Semantics = iota
	// CopySemantics is C-CS partial (Where-provenance flavored): an
	// attribute's provenance survives when its value is copied to the output
	// on at least one derivation path (e.g. one union branch); everything
	// else is NULL-masked. Contribution rows equal influence semantics.
	CopySemantics
	// CopyCompleteSemantics is C-CS complete: the attribute must be copied
	// on every derivation path (all union branches) to survive masking.
	CopyCompleteSemantics
)

func (s Semantics) String() string {
	switch s {
	case CopySemantics:
		return "COPY PARTIAL"
	case CopyCompleteSemantics:
		return "COPY COMPLETE"
	}
	return "INFLUENCE"
}

// AggStrategy selects the aggregation rewrite rule.
type AggStrategy int

// Aggregation strategies.
const (
	// AggJoinGroup joins the original aggregate back to the rewritten input
	// on the group-by keys (null-safe). Default.
	AggJoinGroup AggStrategy = iota
	// AggCrossFilter crosses the original aggregate with the rewritten input
	// and filters on the group keys afterwards; cheaper only for tiny inputs
	// (no hash build), the cost-based chooser's baseline alternative.
	AggCrossFilter
)

// SetStrategy selects the set-operation rewrite rule.
type SetStrategy int

// Set-operation strategies.
const (
	// SetPad rewrites both branches and pads the missing provenance columns
	// of the other branch with NULLs (the representation of Figure 2).
	// Default.
	SetPad SetStrategy = iota
	// SetJoin computes the original set operation and joins it back to the
	// padded union of the rewritten branches on tuple equality.
	SetJoin
)

// DistinctStrategy selects the duplicate-elimination rewrite rule.
type DistinctStrategy int

// Distinct strategies.
const (
	// DistinctPass uses δ(T)+ = T+ (each duplicate is its own witness).
	// Default.
	DistinctPass DistinctStrategy = iota
	// DistinctJoin joins δ(T) back to T+ on tuple equality.
	DistinctJoin
)

// StrategyMode selects how per-operator strategies are chosen.
type StrategyMode int

// Strategy selection modes.
const (
	// ModeHeuristic always applies the default strategy of each operator.
	ModeHeuristic StrategyMode = iota
	// ModeCost compares estimated costs via the Estimator and picks the
	// cheaper strategy.
	ModeCost
)

// Options configures a rewrite.
type Options struct {
	Semantics Semantics
	Mode      StrategyMode
	// Per-operator strategy overrides: when the *Forced flag is set the
	// corresponding strategy is applied unconditionally (the Perm browser's
	// "activate or deactivate rewrite strategies" toggle).
	Agg            AggStrategy
	AggForced      bool
	Set            SetStrategy
	SetForced      bool
	Distinct       DistinctStrategy
	DistinctForced bool
	// SchemaName is the schema part of generated provenance attribute names
	// (prov_<schema>_<rel>_<attr>); the paper's system uses "public".
	SchemaName string
	// Estimator returns the estimated output cardinality of a subtree; used
	// by ModeCost. When nil, ModeCost falls back to the heuristics.
	Estimator func(algebra.Op) float64
}

// DefaultOptions returns the paper defaults: influence semantics, heuristic
// strategy choice, PostgreSQL's "public" schema name.
func DefaultOptions() Options {
	return Options{SchemaName: "public"}
}

// Rewriter performs provenance rewrites. Create one per statement: it keeps
// per-query state (relation instance counters for unique provenance names).
type Rewriter struct {
	opts      Options
	instances map[string]int
	// created tracks which provenance column names were created by this
	// rewrite (as opposed to external/pre-existing provenance), for COPY
	// masking.
	created map[string]bool
	// Decisions records the strategy decisions taken, for EXPLAIN and the
	// Perm-browser display.
	Decisions []string
}

// NewRewriter returns a rewriter with the options.
func NewRewriter(opts Options) *Rewriter {
	if opts.SchemaName == "" {
		opts.SchemaName = "public"
	}
	return &Rewriter{
		opts:      opts,
		instances: make(map[string]int),
		created:   make(map[string]bool),
	}
}

// result is the outcome of rewriting one subtree.
type result struct {
	op   algebra.Op
	prov []int // provenance column indices in op.Schema()
	// copies[i] lists the provenance column indices whose base values are
	// copied verbatim into column i (C-CS tracking).
	copies [][]int
}

// Rewrite transforms q into q+ under the configured semantics. The returned
// tree's schema is q's schema followed by the provenance attributes.
func (r *Rewriter) Rewrite(q algebra.Op) (algebra.Op, error) {
	res, err := r.rewrite(q)
	if err != nil {
		return nil, err
	}
	if r.opts.Semantics == CopySemantics || r.opts.Semantics == CopyCompleteSemantics {
		return r.applyCopyMask(res), nil
	}
	return res.op, nil
}

// applyCopyMask NULLs out created provenance columns that are never copied
// into any data column of the final result (static C-CS).
func (r *Rewriter) applyCopyMask(res result) algebra.Op {
	sch := res.op.Schema()
	mask := make([]bool, len(sch))
	for _, p := range res.prov {
		mask[p] = r.created[sch[p].Name]
	}
	for i, c := range sch {
		if !c.IsProv {
			for _, p := range res.copies[i] {
				mask[p] = false
			}
		}
	}
	if !slices.Contains(mask, true) {
		return res.op
	}
	l := over(res, len(sch))
	for i, c := range sch {
		if mask[i] {
			l.null(c)
		} else {
			l.keep(i)
		}
	}
	r.note("COPY mask: nulled non-copied provenance attributes")
	return l.finish().op
}

func (r *Rewriter) note(format string, args ...interface{}) {
	r.Decisions = append(r.Decisions, fmt.Sprintf(format, args...))
}

// instanceName allocates a unique provenance relation-instance name.
func (r *Rewriter) instanceName(rel string) string {
	n := r.instances[rel]
	r.instances[rel] = n + 1
	if n == 0 {
		return rel
	}
	return fmt.Sprintf("%s_%d", rel, n)
}

// ProvAttrName builds the paper's provenance attribute naming scheme.
func ProvAttrName(schema, rel, attr string) string {
	return fmt.Sprintf("prov_%s_%s_%s", schema, rel, attr)
}

// emptyCopies allocates the no-copies tracking for a schema width.
func emptyCopies(n int) [][]int { return make([][]int, n) }

// rewrite dispatches on the operator kind.
func (r *Rewriter) rewrite(op algebra.Op) (result, error) {
	// Rule 0 — subtrees marked ProvDone already carry their provenance
	// (external provenance via PROVENANCE (attrs), or an inner SELECT
	// PROVENANCE that was already rewritten): pass through untouched — the
	// rules are unaware of how the provenance of their input was produced.
	if pd, ok := op.(*algebra.ProvDone); ok {
		prov := pd.Schema().ProvIdx()
		copies := emptyCopies(len(pd.Schema()))
		for _, p := range prov {
			copies[p] = []int{p}
		}
		return result{op: pd.Input, prov: prov, copies: copies}, nil
	}
	switch o := op.(type) {
	case *algebra.Scan:
		return r.rewriteBase(o, o.Table)
	case *algebra.BaseRel:
		return r.rewriteBase(o.Input, o.RelName)
	case *algebra.Values:
		return result{op: o, copies: emptyCopies(len(o.Sch))}, nil
	case *algebra.Project:
		return r.rewriteProject(o)
	case *algebra.Select:
		return r.rewriteSelect(o)
	case *algebra.Join:
		return r.rewriteJoin(o)
	case *algebra.Agg:
		return r.rewriteAgg(o)
	case *algebra.Distinct:
		return r.rewriteDistinct(o)
	case *algebra.SetOp:
		return r.rewriteSetOp(o)
	case *algebra.Sort:
		in, err := r.rewrite(o.Input)
		if err != nil {
			return result{}, err
		}
		return result{op: &algebra.Sort{Input: in.op, Keys: o.Keys}, prov: in.prov, copies: in.copies}, nil
	case *algebra.Limit:
		return r.rewriteLimit(o)
	}
	return result{}, fmt.Errorf("provenance rewrite: unsupported operator %T", op)
}

// rewriteBase implements the base-relation rule: duplicate every output
// attribute as a provenance attribute named prov_<schema>_<rel>_<attr>.
// It serves Scan (actual base relations) and BaseRel (SQL-PLE BASERELATION
// subtrees treated like base relations).
func (r *Rewriter) rewriteBase(input algebra.Op, rel string) (result, error) {
	inst := r.instanceName(rel)
	sch := input.Schema()
	l := newLayout(input, 2*len(sch), nil, len(sch), nil)
	for i := range sch {
		l.keep(i)
	}
	for i, c := range sch {
		name := ProvAttrName(r.opts.SchemaName, inst, c.Name)
		l.prov(i, algebra.Column{Name: name, Type: c.Type, IsProv: true, ProvRel: inst, ProvAttr: c.Name})
		r.created[name] = true
	}
	return l.finish(), nil
}

// rewriteProject implements (Π_A(T))+ = Π_{A,P(T+)}(T+).
func (r *Rewriter) rewriteProject(p *algebra.Project) (result, error) {
	for _, e := range p.Exprs {
		if algebra.HasSubplan(e) {
			return result{}, fmt.Errorf("provenance rewrite: subqueries in the select list are not supported; move the subquery into the FROM clause")
		}
	}
	in, err := r.rewrite(p.Input)
	if err != nil {
		return result{}, err
	}
	l := over(in, len(p.Exprs)+len(in.prov))
	for j, e := range p.Exprs {
		from := noCopies
		if ci, ok := e.(*algebra.ColIdx); ok {
			from = ci.Idx
		}
		l.data(e, p.Sch[j], from)
	}
	l.provOf(in, 0)
	return l.finish(), nil
}

// rewriteSelect implements (σ_c(T))+ = σ_c(T+), plus the EDBT '09 nested-
// subquery rules: positive EXISTS/IN/scalar comparisons are de-correlated
// into (lateral) joins with the rewritten subquery so that contributing
// subquery tuples appear in the provenance; negated forms keep the runtime
// subplan and contribute no subquery provenance (PI-CS's left-only semantics
// for negation, as with set difference).
func (r *Rewriter) rewriteSelect(s *algebra.Select) (result, error) {
	in, err := r.rewrite(s.Input)
	if err != nil {
		return result{}, err
	}
	cur := in
	var residual []algebra.Expr
	for _, conj := range algebra.SplitAnd(s.Cond) {
		if !algebra.HasSubplan(conj) {
			residual = append(residual, conj)
			continue
		}
		next, handled, err := r.decorrelateConjunct(cur, conj)
		if err != nil {
			return result{}, err
		}
		if handled {
			cur = next
			continue
		}
		residual = append(residual, conj)
	}
	if cond := algebra.AndAll(residual); cond != nil {
		cur = result{op: &algebra.Select{Input: cur.op, Cond: cond}, prov: cur.prov, copies: cur.copies}
	}
	return cur, nil
}

// decorrelateConjunct turns one subplan-bearing conjunct into a join against
// the rewritten subquery. Returns handled=false when the conjunct shape is
// not rewritable into a join (it then stays a runtime filter).
func (r *Rewriter) decorrelateConjunct(cur result, conj algebra.Expr) (result, bool, error) {
	var sp *algebra.Subplan
	var needle algebra.Expr // nil: a pure EXISTS, joined without a condition
	var cmp *sql.BinOp
	switch x := conj.(type) {
	case *algebra.Subplan:
		sp = x
		switch {
		case x.Mode == algebra.ExistsSubplan && x.Neg:
			// NOT EXISTS: runtime filter, no subquery provenance.
			r.note("NOT EXISTS kept as filter (no subquery provenance, PI-CS negation)")
			return cur, false, nil
		case x.Mode == algebra.ExistsSubplan:
			r.note("EXISTS de-correlated into %sjoin", lateralWord(x.Correlated))
		case x.Mode == algebra.InSubplan && x.Neg:
			r.note("NOT IN kept as filter (no subquery provenance, PI-CS negation)")
			return cur, false, nil
		case x.Mode == algebra.InSubplan:
			r.note("IN de-correlated into %sjoin", lateralWord(x.Correlated))
			needle, cmp = x.Needle, eqOp()
		case x.Mode == algebra.AnySubplan:
			// needle op ANY (sub) joins on the comparison: one witness row
			// per matching subquery tuple — the quantifier's positive form.
			r.note("%s ANY de-correlated into %sjoin", x.CmpOp, lateralWord(x.Correlated))
			op := x.CmpOp
			needle, cmp = x.Needle, &op
		case x.Mode == algebra.AllSubplan:
			// ALL is a universal quantifier (negation-shaped): kept as a
			// runtime filter, contributing no subquery provenance, like
			// NOT IN and set difference under PI-CS.
			r.note("%s ALL kept as filter (no subquery provenance, PI-CS negation)", x.CmpOp)
			return cur, false, nil
		default:
			return cur, false, nil
		}
	case *algebra.Bin:
		// Comparison against a scalar subquery: lhs op (SELECT ...).
		if q, ok := x.R.(*algebra.Subplan); ok && q.Mode == algebra.ScalarSubplan && !algebra.HasSubplan(x.L) {
			sp, needle, cmp = q, x.L, &x.Op
		} else if q, ok := x.L.(*algebra.Subplan); ok && q.Mode == algebra.ScalarSubplan && !algebra.HasSubplan(x.R) {
			sp, needle, cmp = q, x.R, flipComparison(x.Op)
		}
		if cmp == nil {
			return cur, false, nil
		}
		r.note("scalar subquery comparison de-correlated into %sjoin", lateralWord(sp.Correlated))
	default:
		return cur, false, nil
	}
	next, err := r.joinSubquery(cur, sp.Plan, sp.Correlated, needle, cmp)
	return next, err == nil, err
}

func lateralWord(correlated bool) string {
	if correlated {
		return "lateral "
	}
	return ""
}

func eqOp() *sql.BinOp {
	op := sql.OpEq
	return &op
}

// flipComparison mirrors a comparison operator (a op b == b op' a).
func flipComparison(op sql.BinOp) *sql.BinOp {
	var out sql.BinOp
	switch op {
	case sql.OpEq:
		out = sql.OpEq
	case sql.OpNeq:
		out = sql.OpNeq
	case sql.OpLt:
		out = sql.OpGt
	case sql.OpLte:
		out = sql.OpGte
	case sql.OpGt:
		out = sql.OpLt
	case sql.OpGte:
		out = sql.OpLte
	default:
		return nil
	}
	return &out
}

// joinSubquery joins cur with the rewritten subquery plan. When needle/op are
// given, the join condition compares the needle (over cur's columns) with the
// subquery's single data column; otherwise the join is cross/lateral (pure
// EXISTS). The subquery's data columns are projected away afterwards, keeping
// only its provenance columns, so cur's original columns stay a prefix.
func (r *Rewriter) joinSubquery(cur result, plan algebra.Op, correlated bool, needle algebra.Expr, cmp *sql.BinOp) (result, error) {
	sub, err := r.rewrite(plan)
	if err != nil {
		return result{}, err
	}
	nCur := len(cur.copies)
	subSch := sub.op.Schema()
	var cond algebra.Expr
	if needle != nil {
		data := subSch.DataIdx()
		if len(data) != 1 {
			return result{}, fmt.Errorf("provenance rewrite: subquery comparison needs exactly one output column, got %d", len(data))
		}
		di := data[0]
		cond = &algebra.Bin{
			Op: *cmp,
			L:  needle, // references cur columns — prefix-preserved
			R:  &algebra.ColIdx{Idx: nCur + di, Typ: subSch[di].Type, Name: subSch[di].Name},
		}
	}
	join := algebra.NewJoin(algebra.JoinInner, cur.op, sub.op, cond)
	join.Lateral = correlated
	l := newLayout(join, nCur+len(sub.prov), cur.copies, nCur, sub.copies)
	l.keepAll(cur)
	l.provOf(sub, nCur)
	return l.finish(), nil
}

// rewriteJoin implements (T1 ⋈_c T2)+ = Π_reorder(T1+ ⋈_c' T2+): both inputs
// are rewritten, the condition's right-side indices shift past T1's new
// provenance columns, and a projection restores the original-columns-first
// layout.
func (r *Rewriter) rewriteJoin(j *algebra.Join) (result, error) {
	if j.Cond != nil && algebra.HasSubplan(j.Cond) {
		return result{}, fmt.Errorf("provenance rewrite: subqueries in JOIN conditions are not supported")
	}
	left, err := r.rewrite(j.Left)
	if err != nil {
		return result{}, err
	}
	right, err := r.rewrite(j.Right)
	if err != nil {
		return result{}, err
	}
	nL := len(j.Left.Schema())
	nR := len(j.Right.Schema())
	nLplus := len(left.copies)
	var cond algebra.Expr
	if j.Cond != nil {
		cond = algebra.MapCols(j.Cond, func(c *algebra.ColIdx) algebra.Expr {
			if c.Idx >= nL {
				return &algebra.ColIdx{Idx: c.Idx - nL + nLplus, Typ: c.Typ, Name: c.Name}
			}
			return c
		})
	}
	join := algebra.NewJoin(j.Kind, left.op, right.op, cond)
	join.Lateral = j.Lateral

	// Reorder to [T1 data, T2 data, P1, P2]. An original column its input
	// also carries as provenance (PROVENANCE (attrs)) stays data by name and
	// type only, copying nothing.
	l := newLayout(join, nL+nR+len(left.prov)+len(right.prov), left.copies, nLplus, right.copies)
	keep := func(side result, off, n int) {
		for i := 0; i < n; i++ {
			if c := l.inSch[off+i]; slices.Contains(side.prov, i) {
				l.data(l.col(off+i), algebra.Column{Name: c.Name, Type: c.Type}, noCopies)
			} else {
				l.keep(off + i)
			}
		}
	}
	keep(left, 0, nL)
	keep(right, nLplus, nR)
	l.provOf(left, 0)
	l.provOf(right, nLplus)
	return l.finish(), nil
}
