// Package planner implements the optimizer stage of the Perm pipeline
// (Figure 3: "optimize and transform into plan"): rule-based logical
// optimizations (constant folding, predicate pushdown into and below joins,
// filter merging, identity-projection removal), the choice of each hash
// join's build side, and the cardinality estimator that both the planner and
// the provenance rewriter's cost-based strategy chooser use. Perm
// deliberately reuses the host DBMS's optimizer on rewritten queries; this
// package plays that role for the Go engine.
package planner

import (
	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/value"
)

// Planner optimizes plans and estimates cardinalities against a catalog.
type Planner struct {
	Cat *catalog.Catalog
}

// New returns a planner over the catalog.
func New(cat *catalog.Catalog) *Planner {
	return &Planner{Cat: cat}
}

// Optimize applies the logical rewrite rules to their fixpoint, then picks
// the build side of every hash join from the estimates.
func (p *Planner) Optimize(op algebra.Op) algebra.Op {
	op, _ = pass(op)
	op, _ = buildSides(op, &estimator{cat: p.Cat})
	return op
}

// mapChildren rebuilds op over fn's results for its children, returning op
// itself when fn changed none of them.
func mapChildren(op algebra.Op, fn func(algebra.Op) (algebra.Op, bool)) (algebra.Op, bool) {
	children := op.Children()
	var rebuilt []algebra.Op
	for i, c := range children {
		nc, changed := fn(c)
		if !changed {
			continue
		}
		if rebuilt == nil {
			rebuilt = append(rebuilt, children...)
		}
		rebuilt[i] = nc
	}
	if rebuilt == nil {
		return op, false
	}
	return op.WithChildren(rebuilt), true
}

// pass optimizes a subtree bottom-up and leaves it at the rules' fixpoint,
// visiting every node once. A node is copied only when a child, an
// expression or its place in the tree changed; a subtree already at the
// fixpoint is walked, not rebuilt.
func pass(op algebra.Op) (algebra.Op, bool) {
	op, changed := mapChildren(op, pass)
	op, settled := settle(op)
	return op, changed || settled
}

// settle brings a node whose children are at the fixpoint there itself: it
// folds the node's constants and applies rules at its root until none
// matches. A rule settles the nodes it builds below the new root (the filter
// pushed one level down meets the next join of a comma list there), so an
// n-way list resolves however deep it nests, and so does a stack of
// projections. It ends because every rule either removes an operator or
// moves a filter towards the leaves, and none does the opposite.
func settle(op algebra.Op) (algebra.Op, bool) {
	changed := false
	op = algebra.MapOwnExprs(op, func(e algebra.Expr) algebra.Expr {
		ne, ch := FoldConstants(e)
		changed = changed || ch
		return ne
	})
	if next, ok := rewrite(op); ok {
		next, _ = settle(next)
		return next, true
	}
	return op, changed
}

// filter is a settled Select over an input at the fixpoint: what a rule
// that moves a condition down puts there.
func filter(input algebra.Op, cond algebra.Expr) algebra.Op {
	op, _ := settle(&algebra.Select{Input: input, Cond: cond})
	return op
}

// rewrite applies the first rule that matches at the root of op, whose
// children are at the fixpoint; so is every node under the root it returns.
func rewrite(op algebra.Op) (algebra.Op, bool) {
	switch o := op.(type) {
	case *algebra.Select:
		// Drop trivially-true filters.
		if c, ok := o.Cond.(*algebra.Const); ok && !c.Val.IsNull() && c.Val.Kind() == value.KindBool && c.Val.Bool() {
			return o.Input, true
		}
		// Merge stacked filters.
		if inner, ok := o.Input.(*algebra.Select); ok {
			return &algebra.Select{
				Input: inner.Input,
				Cond:  &algebra.Bin{Op: sql.OpAnd, L: inner.Cond, R: o.Cond},
			}, true
		}
		// Push filter below a projection when the condition rewrites to
		// cheap expressions.
		if proj, ok := o.Input.(*algebra.Project); ok && !algebra.HasSubplan(o.Cond) {
			if cond, ok2 := substitute(o.Cond, proj.Exprs); ok2 {
				np := *proj
				np.Input = filter(proj.Input, cond)
				return &np, true
			}
		}
		// Push conjuncts into the join condition and below the join.
		if join, ok := o.Input.(*algebra.Join); ok && !join.Lateral {
			if next, ok2 := pushIntoJoin(o, join); ok2 {
				return next, true
			}
		}
		// Swap with sort (filter first).
		if srt, ok := o.Input.(*algebra.Sort); ok {
			return &algebra.Sort{Input: filter(srt.Input, o.Cond), Keys: srt.Keys}, true
		}
	case *algebra.Project:
		// Collapse identity projections that change nothing observable.
		if isIdentityProject(o) {
			return o.Input, true
		}
		return mergeProjects(o)
	case *algebra.Join:
		return pullColumnMaps(o)
	}
	return nil, false
}

// columnMap returns op when it is a projection that only copies columns of
// its input and drops nothing: every expression is a plain column and the
// output is at least as wide as the input. The provenance rewrite of a base
// relation is the case in point — the relation's attributes, then the same
// attributes again as its provenance.
func columnMap(op algebra.Op) *algebra.Project {
	p, ok := op.(*algebra.Project)
	if !ok || len(p.Exprs) < len(p.Input.Schema()) {
		return nil
	}
	for _, e := range p.Exprs {
		if _, ok := e.(*algebra.ColIdx); !ok {
			return nil
		}
	}
	return p
}

// pullColumnMaps moves a column map under a join above it: the join reads
// the rows the map would have copied (a join holds its inputs by reference
// and writes only its output rows), and the map joins the projection above
// the join, which the join emits through. Every row of such an input is a
// rearrangement of a row that already exists, so it need not be born. A map
// that drops columns stays where it is: under it the build side charges, and
// spills, only what it keeps. Semi and anti joins hand on the probe row
// itself, a lateral right side reads the left row by position, and a subplan
// in the condition keeps its column space.
func pullColumnMaps(j *algebra.Join) (algebra.Op, bool) {
	if j.Lateral || j.Kind == algebra.JoinSemi || j.Kind == algebra.JoinAnti || (j.Cond != nil && algebra.HasSubplan(j.Cond)) {
		return nil, false
	}
	lp, rp := columnMap(j.Left), columnMap(j.Right)
	if lp == nil && rp == nil {
		return nil, false
	}
	left, right := j.Left, j.Right
	if lp != nil {
		left = lp.Input
	}
	if rp != nil {
		right = rp.Input
	}
	nLeft, newNLeft := len(j.Left.Schema()), len(left.Schema())
	// Column i of the old join is column moved(i) of the new one.
	moved := func(i int) int {
		switch {
		case i < nLeft && lp != nil:
			return lp.Exprs[i].(*algebra.ColIdx).Idx
		case i < nLeft:
			return i
		case rp != nil:
			return newNLeft + rp.Exprs[i-nLeft].(*algebra.ColIdx).Idx
		}
		return newNLeft + i - nLeft
	}
	var cond algebra.Expr
	if j.Cond != nil {
		cond = algebra.MapCols(j.Cond, func(c *algebra.ColIdx) algebra.Expr {
			return &algebra.ColIdx{Idx: moved(c.Idx), Typ: c.Typ, Name: c.Name}
		})
	}
	exprs := make([]algebra.Expr, len(j.Sch))
	for i, col := range j.Sch {
		exprs[i] = &algebra.ColIdx{Idx: moved(i), Typ: col.Type, Name: col.Name}
	}
	return &algebra.Project{Input: algebra.NewJoin(j.Kind, left, right, cond), Exprs: exprs, Sch: j.Sch}, true
}

// mergeProjects folds Project(Project) into one when the outer references
// are substitutable.
func mergeProjects(o *algebra.Project) (algebra.Op, bool) {
	inner, ok := o.Input.(*algebra.Project)
	if !ok {
		return nil, false
	}
	newExprs := make([]algebra.Expr, len(o.Exprs))
	for i, e := range o.Exprs {
		ne, ok := substitute(e, inner.Exprs)
		if !ok {
			return nil, false
		}
		newExprs[i] = ne
	}
	np := *o
	np.Input = inner.Input
	np.Exprs = newExprs
	return &np, true
}

// isIdentityProject reports whether the projection emits its input unchanged
// (same positions, names, types and provenance metadata).
func isIdentityProject(p *algebra.Project) bool {
	in := p.Input.Schema()
	if len(p.Exprs) != len(in) {
		return false
	}
	for i, e := range p.Exprs {
		ci, ok := e.(*algebra.ColIdx)
		if !ok || ci.Idx != i {
			return false
		}
		if p.Sch[i] != in[i] {
			return false
		}
	}
	return true
}

// substitute rewrites cond's column references through the projection's
// expressions; ok is false when any referenced expression is not cheap
// (only ColIdx, Const and Cast-of-those count as cheap to duplicate).
func substitute(cond algebra.Expr, exprs []algebra.Expr) (algebra.Expr, bool) {
	ok := true
	out := algebra.MapCols(cond, func(c *algebra.ColIdx) algebra.Expr {
		if c.Idx >= len(exprs) {
			ok = false
			return c
		}
		e := exprs[c.Idx]
		if !cheap(e) {
			ok = false
		}
		return e
	})
	return out, ok
}

func cheap(e algebra.Expr) bool {
	switch x := e.(type) {
	case *algebra.ColIdx, *algebra.Const, *algebra.OuterRef:
		return true
	case *algebra.Cast:
		return cheap(x.E)
	}
	return false
}

// sides reports which inputs of a join whose left input has nLeft columns
// the expression reads.
func sides(e algebra.Expr, nLeft int) (left, right bool) {
	algebra.MapCols(e, func(c *algebra.ColIdx) algebra.Expr {
		if c.Idx < nLeft {
			left = true
		} else {
			right = true
		}
		return c
	})
	return left, right
}

// pushIntoJoin moves the filter's conjuncts to where an inner or cross join
// can use them: one that reads a single input goes below the join, one that
// reads both becomes part of the join condition (a cross join turns inner),
// so that a comma list with its WHERE plans exactly like JOIN ... ON — its
// equalities reach the hash join's key extraction, the rest the nested
// loop's condition. Outer, semi and anti joins are left alone: a filter above
// them sees the NULL-extended rows, a condition inside them does not.
func pushIntoJoin(sel *algebra.Select, join *algebra.Join) (algebra.Op, bool) {
	if join.Kind != algebra.JoinInner && join.Kind != algebra.JoinCross {
		return nil, false
	}
	nLeft := len(join.Left.Schema())
	var leftConds, rightConds, joinConds, rest []algebra.Expr
	for _, conj := range algebra.SplitAnd(sel.Cond) {
		if algebra.HasSubplan(conj) {
			rest = append(rest, conj)
			continue
		}
		switch left, right := sides(conj, nLeft); {
		case left && right:
			joinConds = append(joinConds, conj)
		case left:
			leftConds = append(leftConds, conj)
		case right:
			rightConds = append(rightConds, algebra.ShiftCols(conj, -nLeft))
		default:
			rest = append(rest, conj)
		}
	}
	if len(leftConds)+len(rightConds)+len(joinConds) == 0 {
		return nil, false
	}
	nj := *join
	if c := algebra.AndAll(leftConds); c != nil {
		nj.Left = filter(join.Left, c)
	}
	if c := algebra.AndAll(rightConds); c != nil {
		nj.Right = filter(join.Right, c)
	}
	if c := algebra.AndAll(joinConds); c != nil {
		nj.Kind = algebra.JoinInner
		nj.Cond = algebra.AndAll([]algebra.Expr{join.Cond, c})
	}
	var out algebra.Op = &nj
	if c := algebra.AndAll(rest); c != nil {
		out = &algebra.Select{Input: out, Cond: c}
	}
	return out, true
}

// --- build side -------------------------------------------------------------------

// buildSideRatio is how much bigger (estimated rows × columns) the right
// input of a hash join must be than the left before the join is commuted.
// The margin keeps joins of similar inputs, where the estimate decides
// nothing, in the order they were written.
const buildSideRatio = 2

// isEquiKey reports whether a join conjunct is an equality between the two
// inputs — what the executor hashes on. Like the executor's key extraction
// it counts an operand without columns as belonging to the left input.
func isEquiKey(conj algebra.Expr, nLeft int) bool {
	b, ok := conj.(*algebra.Bin)
	if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) || algebra.HasSubplan(conj) {
		return false
	}
	ll, lr := sides(b.L, nLeft)
	rl, rr := sides(b.R, nLeft)
	if (ll && lr) || (rl && rr) {
		return false
	}
	return lr != rr
}

// joinConjuncts counts the condition's equi keys and its other conjuncts.
func joinConjuncts(j *algebra.Join) (equi, residual int) {
	nLeft := len(j.Left.Schema())
	for _, conj := range algebra.SplitAnd(j.Cond) {
		if isEquiKey(conj, nLeft) {
			equi++
		} else {
			residual++
		}
	}
	return equi, residual
}

// buildSides is the one pass after the fixpoint. The executor's hash join
// materializes its right input and streams its left, so a join whose right
// input is estimated much the bigger is commuted; the projection that
// restores the column order merges into a projection above it here, and
// otherwise costs nothing at run time because a join emits through the
// projection above it. Like every cost-based choice the decision lives in
// the cached plan until ANALYZE or DDL, and the order of an unordered result
// may depend on it.
func buildSides(op algebra.Op, est *estimator) (algebra.Op, bool) {
	op, changed := mapChildren(op, func(c algebra.Op) (algebra.Op, bool) { return buildSides(c, est) })
	switch o := op.(type) {
	case *algebra.Join:
		if next, ok := commute(o, est); ok {
			return next, true
		}
	case *algebra.Project:
		if changed {
			if next, ok := mergeProjects(o); ok {
				return next, true
			}
		}
	}
	return op, changed
}

// commute swaps the inputs of a hash join whose right (build) input is more
// than buildSideRatio times the size of its left. Semi and anti joins have
// no mirror image in the algebra, lateral joins have a fixed direction, and
// a subplan in the condition keeps its column space.
func commute(j *algebra.Join, est *estimator) (algebra.Op, bool) {
	if j.Lateral || j.Cond == nil || algebra.HasSubplan(j.Cond) {
		return nil, false
	}
	kind := j.Kind
	switch j.Kind {
	case algebra.JoinInner, algebra.JoinFull:
	case algebra.JoinLeft:
		kind = algebra.JoinRight
	case algebra.JoinRight:
		kind = algebra.JoinLeft
	default:
		return nil, false
	}
	if equi, _ := joinConjuncts(j); equi == 0 {
		return nil, false
	}
	nLeft, nRight := len(j.Left.Schema()), len(j.Right.Schema())
	if est.memo == nil {
		est.memo = map[algebra.Op]float64{}
	}
	if est.rows(j.Right)*float64(nRight) <= buildSideRatio*est.rows(j.Left)*float64(nLeft) {
		return nil, false
	}
	// Old column i lives at swapped[i] of the commuted join.
	swapped := func(i int) int {
		if i < nLeft {
			return i + nRight
		}
		return i - nLeft
	}
	nj := &algebra.Join{
		Kind:  kind,
		Left:  j.Right,
		Right: j.Left,
		Cond: algebra.MapCols(j.Cond, func(c *algebra.ColIdx) algebra.Expr {
			return &algebra.ColIdx{Idx: swapped(c.Idx), Typ: c.Typ, Name: c.Name}
		}),
		Sch: make(algebra.Schema, len(j.Sch)),
	}
	exprs := make([]algebra.Expr, len(j.Sch))
	for i, col := range j.Sch {
		nj.Sch[swapped(i)] = col
		exprs[i] = &algebra.ColIdx{Idx: swapped(i), Typ: col.Type, Name: col.Name}
	}
	return &algebra.Project{Input: nj, Exprs: exprs, Sch: j.Sch}, true
}

// FoldConstants evaluates constant sub-expressions at plan time. It returns
// e itself, and false, when there is nothing to fold.
func FoldConstants(e algebra.Expr) (algebra.Expr, bool) {
	switch x := e.(type) {
	case *algebra.Bin:
		l, lch := FoldConstants(x.L)
		r, rch := FoldConstants(x.R)
		lc, lok := l.(*algebra.Const)
		rc, rok := r.(*algebra.Const)
		if lok && rok && foldableOp(x.Op) {
			if v, err := executor.CompileExpr(&algebra.Bin{Op: x.Op, L: lc, R: rc})(nil, nil); err == nil {
				return &algebra.Const{Val: v}, true
			}
		}
		if lch || rch {
			return &algebra.Bin{Op: x.Op, L: l, R: r}, true
		}
	case *algebra.Not:
		inner, ch := FoldConstants(x.E)
		if c, ok := inner.(*algebra.Const); ok {
			if c.Val.IsNull() {
				return &algebra.Const{Val: value.Null}, true
			}
			if c.Val.Kind() == value.KindBool {
				return &algebra.Const{Val: value.NewBool(!c.Val.Bool())}, true
			}
		}
		if ch {
			return &algebra.Not{E: inner}, true
		}
	case *algebra.Neg:
		inner, ch := FoldConstants(x.E)
		if c, ok := inner.(*algebra.Const); ok {
			if v, err := value.Neg(c.Val); err == nil {
				return &algebra.Const{Val: v}, true
			}
		}
		if ch {
			return &algebra.Neg{E: inner}, true
		}
	case *algebra.IsNull:
		inner, ch := FoldConstants(x.E)
		if c, ok := inner.(*algebra.Const); ok {
			return &algebra.Const{Val: value.NewBool(c.Val.IsNull() != x.Not)}, true
		}
		if ch {
			return &algebra.IsNull{E: inner, Not: x.Not}, true
		}
	case *algebra.Cast:
		inner, ch := FoldConstants(x.E)
		if c, ok := inner.(*algebra.Const); ok {
			if v, err := value.Coerce(c.Val, x.To); err == nil {
				return &algebra.Const{Val: v}, true
			}
		}
		if ch {
			return &algebra.Cast{E: inner, To: x.To}, true
		}
	}
	return e, false
}

// foldableOp excludes AND/OR (3VL short-circuits are already cheap and
// folding them needs care with NULL) — arithmetic and comparisons fold.
func foldableOp(op sql.BinOp) bool {
	switch op {
	case sql.OpAnd, sql.OpOr:
		return false
	}
	return true
}

// --- cardinality estimation -------------------------------------------------------

const defaultTableRows = 1000

// conjunctSelectivity is the share of rows n filter conjuncts are assumed to
// keep: a quarter each, floored at one percent.
func conjunctSelectivity(n int) float64 {
	sel := 1.0
	for i := 0; i < n; i++ {
		sel *= 0.25
	}
	if sel < 0.01 {
		sel = 0.01
	}
	return sel
}

// EstimateRows estimates the output cardinality of a plan using catalog
// statistics; unknown tables default to 1000 rows. The provenance rewriter's
// cost-based strategy chooser consumes this.
func (p *Planner) EstimateRows(op algebra.Op) float64 {
	e := estimator{cat: p.Cat}
	return e.rows(op)
}

// estimator computes cardinality estimates, remembering them per node when
// memo is set (one optimizer pass asks about the same subtrees repeatedly).
type estimator struct {
	cat  *catalog.Catalog
	memo map[algebra.Op]float64
}

func (e *estimator) rows(op algebra.Op) float64 {
	if e.memo == nil {
		return e.estimate(op)
	}
	if est, ok := e.memo[op]; ok {
		return est
	}
	est := e.estimate(op)
	e.memo[op] = est
	return est
}

func (e *estimator) estimate(op algebra.Op) float64 {
	switch o := op.(type) {
	case *algebra.Scan:
		st := e.cat.TableStats(o.Table)
		if st.RowCount > 0 {
			return float64(st.RowCount)
		}
		return defaultTableRows
	case *algebra.Values:
		return float64(len(o.Rows))
	case *algebra.Project:
		return e.rows(o.Input)
	case *algebra.BaseRel:
		return e.rows(o.Input)
	case *algebra.ProvDone:
		return e.rows(o.Input)
	case *algebra.Select:
		return e.rows(o.Input) * conjunctSelectivity(len(algebra.SplitAnd(o.Cond)))
	case *algebra.Join:
		l := e.rows(o.Left)
		r := e.rows(o.Right)
		switch o.Kind {
		case algebra.JoinCross:
			return l * r
		case algebra.JoinSemi, algebra.JoinAnti:
			return l / 2
		}
		est := l * r
		if o.Cond != nil {
			equi, residual := joinConjuncts(o)
			if equi > 0 {
				// Equi-join heuristic: |L×R| / max(|L|,|R|).
				den := l
				if r > den {
					den = r
				}
				if den < 1 {
					den = 1
				}
				est /= den
			}
			// Whatever else the condition says filters the pairs like a WHERE.
			if residual > 0 {
				est *= conjunctSelectivity(residual)
			}
		}
		if o.Kind == algebra.JoinLeft && est < l {
			est = l
		}
		if o.Kind == algebra.JoinRight && est < r {
			est = r
		}
		if o.Kind == algebra.JoinFull && est < l+r {
			est = l + r
		}
		return est
	case *algebra.Agg:
		in := e.rows(o.Input)
		if len(o.GroupBy) == 0 {
			return 1
		}
		groups := in * 0.1
		if groups < 1 {
			groups = 1
		}
		return groups
	case *algebra.Distinct:
		return e.rows(o.Input) * 0.5
	case *algebra.SetOp:
		l := e.rows(o.Left)
		r := e.rows(o.Right)
		switch o.Kind {
		case algebra.UnionAll:
			return l + r
		case algebra.UnionDistinct:
			return (l + r) * 0.7
		case algebra.IntersectAll, algebra.IntersectDistinct:
			if l < r {
				return l * 0.5
			}
			return r * 0.5
		default:
			return l * 0.5
		}
	case *algebra.Sort:
		return e.rows(o.Input)
	case *algebra.Limit:
		in := e.rows(o.Input)
		if o.Count >= 0 && float64(o.Count) < in {
			return float64(o.Count)
		}
		return in
	}
	return defaultTableRows
}
