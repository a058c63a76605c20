package core

import (
	"fmt"
	"slices"

	"perm/internal/algebra"
)

// This file holds the rewrite rules with multiple strategies — aggregation,
// duplicate elimination, set operations, and LIMIT — together with the
// heuristic / cost-based strategy chooser the paper describes in §2.2 ("we
// provide a heuristic and a cost-based solution for choosing the best
// rewrite strategy").

// chooseAgg picks the aggregation strategy.
func (r *Rewriter) chooseAgg(a *algebra.Agg) AggStrategy {
	if r.opts.AggForced {
		return r.opts.Agg
	}
	if r.opts.Mode != ModeCost || r.opts.Estimator == nil {
		return AggJoinGroup
	}
	// Join-back costs ~ build(input) + probe(groups); cross-filter costs
	// groups × input. Cross wins only when their product is smaller than the
	// hash overhead — i.e. for tiny inputs.
	in, groups := r.opts.Estimator(a.Input), r.opts.Estimator(a)
	if groups*in < 64 {
		r.note("cost-based: AggCrossFilter (|groups|×|input| = %.0f)", groups*in)
		return AggCrossFilter
	}
	r.note("cost-based: AggJoinGroup (|groups|×|input| = %.0f)", groups*in)
	return AggJoinGroup
}

// chooseSet picks the set-operation strategy.
func (r *Rewriter) chooseSet(s *algebra.SetOp) SetStrategy {
	if r.opts.SetForced {
		return r.opts.Set
	}
	if r.opts.Mode != ModeCost || r.opts.Estimator == nil {
		return SetPad
	}
	// Padding reads each branch once. Join-back additionally computes the
	// original set operation and a join; it only wins when the set operation
	// shrinks the result a lot and provenance consumers filter on it —
	// heuristically when the distinct result is much smaller than the union
	// of branches.
	union := r.opts.Estimator(s.Left) + r.opts.Estimator(s.Right)
	distinct := r.opts.Estimator(s)
	if distinct < union/8 {
		r.note("cost-based: SetJoin (|setop| %.0f ≪ |branches| %.0f)", distinct, union)
		return SetJoin
	}
	r.note("cost-based: SetPad (|setop| %.0f vs |branches| %.0f)", distinct, union)
	return SetPad
}

// chooseDistinct picks the duplicate-elimination strategy.
func (r *Rewriter) chooseDistinct(d *algebra.Distinct) DistinctStrategy {
	if r.opts.DistinctForced {
		return r.opts.Distinct
	}
	return DistinctPass
}

// --- aggregation -----------------------------------------------------------------

// rewriteAgg implements (α_{G,agg}(T))+ = Π_{A,P(T+)}(α_{G,agg}(T) ⟕_{G ≐ G'} T+):
// the original aggregation result is joined back to the rewritten input on
// the group-by expressions with null-safe equality (≐, IS NOT DISTINCT
// FROM). A left join keeps the scalar-aggregation row (no GROUP BY, empty
// input) with NULL provenance.
func (r *Rewriter) rewriteAgg(a *algebra.Agg) (result, error) {
	for _, g := range a.GroupBy {
		if algebra.HasSubplan(g) {
			return result{}, fmt.Errorf("provenance rewrite: subqueries in GROUP BY are not supported")
		}
	}
	for _, ae := range a.Aggs {
		if ae.Arg != nil && algebra.HasSubplan(ae.Arg) {
			return result{}, fmt.Errorf("provenance rewrite: subqueries in aggregate arguments are not supported")
		}
	}
	in, err := r.rewrite(a.Input)
	if err != nil {
		return result{}, err
	}
	// Null-safe equality between the aggregate's group columns and the group
	// expressions recomputed over the rewritten input (whose original columns
	// are a position-preserving prefix); AggCrossFilter filters a cross
	// product on it instead of joining on it.
	nAgg := len(a.Sch)
	on := make([]algebra.Expr, len(a.GroupBy))
	for i, g := range a.GroupBy {
		on[i] = algebra.ShiftCols(g, nAgg)
	}
	crossFilter := r.chooseAgg(a) == AggCrossFilter
	l := joinBack(algebra.JoinLeft, result{op: a}, in, on, crossFilter, nAgg+len(in.prov))
	// C-CS: group columns that are plain column references copy their base
	// attribute; aggregate results copy nothing.
	for i := 0; i < nAgg; i++ {
		from := noCopies
		if i < len(a.GroupBy) {
			if ci, ok := a.GroupBy[i].(*algebra.ColIdx); ok {
				from = nAgg + ci.Idx
			}
		}
		l.data(l.col(i), a.Sch[i], from)
	}
	l.provOf(in, nAgg)
	return l.finish(), nil
}

// --- distinct --------------------------------------------------------------------

// rewriteDistinct implements (δ(T))+ = T+ (DistinctPass): every duplicate of
// an output tuple is a witness, so the un-deduplicated rewritten input is
// exactly the provenance representation. DistinctJoin instead joins δ(T)
// back to T+ on tuple equality — same result, different cost profile.
func (r *Rewriter) rewriteDistinct(d *algebra.Distinct) (result, error) {
	in, err := r.rewrite(d.Input)
	if err != nil {
		return result{}, err
	}
	if r.chooseDistinct(d) == DistinctPass {
		return in, nil
	}
	r.note("DistinctJoin strategy: joining δ(T) back to T+")
	return tupleJoinBack(d, in), nil
}

// --- set operations -----------------------------------------------------------------

// rewriteSetOp handles union, intersection and difference.
//
// Union (SetPad): (T1 ∪ T2)+ = pad(T1+) ∪All pad(T2+) — each branch is
// rewritten and NULL-padded with the other branch's provenance columns, the
// representation of Figure 2. Duplicate elimination of a distinct union
// disappears by the δ(T)+ = T+ rule: every branch row is a witness.
//
// Union (SetJoin): (T1 ∪ T2) ⋈≐ (pad(T1+) ∪All pad(T2+)) on tuple equality.
//
// Intersection: (T1 ∩ T2)+ joins the original intersection back to both
// rewritten branches on tuple equality — witnesses from both sides.
//
// Difference: PI-CS left-only semantics — (T1 − T2)+ joins the original
// difference back to T1+ only; T2's provenance columns are appended as
// NULLs to keep the full provenance schema.
func (r *Rewriter) rewriteSetOp(s *algebra.SetOp) (result, error) {
	left, err := r.rewrite(s.Left)
	if err != nil {
		return result{}, err
	}
	// EXCEPT rewrites its right branch only to learn its provenance schema:
	// the attributes of every accessed relation appear in the result schema.
	right, err := r.rewrite(s.Right)
	if err != nil {
		return result{}, err
	}
	switch s.Kind {
	case algebra.UnionAll, algebra.UnionDistinct:
		return r.rewriteUnion(s, left, right), nil
	case algebra.IntersectAll, algebra.IntersectDistinct:
		return rewriteIntersect(s, left, right), nil
	case algebra.ExceptAll, algebra.ExceptDistinct:
		return r.rewriteExcept(s, left, right), nil
	}
	return result{}, fmt.Errorf("provenance rewrite: unknown set operation %v", s.Kind)
}

// padBranch lays a rewritten branch out as [data cols, own prov, NULLs for
// the other branch's prov] or [data cols, NULLs, own prov] depending on side.
func padBranch(branch result, dataSch algebra.Schema, ownFirst bool, other result) result {
	l := over(branch, len(dataSch)+len(branch.prov)+len(other.prov))
	for i, c := range dataSch {
		l.data(l.col(i), c, i)
	}
	if ownFirst {
		l.provOf(branch, 0)
	}
	otherSch := other.op.Schema()
	for _, p := range other.prov {
		l.null(otherSch[p])
	}
	if !ownFirst {
		l.provOf(branch, 0)
	}
	return l.finish()
}

func (r *Rewriter) rewriteUnion(s *algebra.SetOp, left, right result) result {
	lPad := padBranch(left, s.Sch, true, right)
	rPad := padBranch(right, s.Sch, false, left)
	union := algebra.NewSetOp(algebra.UnionAll, lPad.op, rPad.op)
	// Union schema follows the left branch, whose prov metadata is complete.
	union.Sch = lPad.op.Schema().Clone()
	copies := emptyCopies(len(union.Sch))
	for i := range copies {
		if r.opts.Semantics == CopyCompleteSemantics {
			// COPY COMPLETE: an attribute counts as copied only when both
			// branches copy it. A branch's own provenance columns are
			// NULL-padded on the other side, so they can never be complete
			// copies into a data column — only attributes whose copy chains
			// exist in both branches survive.
			copies[i] = intersectInts(lPad.copies[i], rPad.copies[i])
		} else {
			copies[i] = unionInts(lPad.copies[i], rPad.copies[i])
		}
	}
	res := result{op: union, prov: rPad.prov, copies: copies}

	if s.Kind == algebra.UnionDistinct && r.chooseSet(s) == SetJoin {
		r.note("SetJoin strategy: joining the original UNION back to the padded branches")
		return tupleJoinBack(s, res)
	}
	return res
}

func intersectInts(a, b []int) []int {
	var out []int
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func unionInts(a, b []int) []int {
	var out []int
	for _, x := range slices.Concat(a, b) {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

func rewriteIntersect(s *algebra.SetOp, left, right result) result {
	// (T1 ∩ T2) joined to T1+ on tuple equality, then to T2+ on its data
	// columns; keep [data, P1, P2].
	step1 := tupleJoinBack(s, left)
	sch, rSch := step1.op.Schema(), right.op.Schema()
	n := len(sch)
	on := make([]algebra.Expr, n)
	for i, c := range sch {
		if !c.IsProv {
			on[i] = &algebra.ColIdx{Idx: n + i, Typ: rSch[i].Type, Name: rSch[i].Name}
		}
	}
	l := joinBack(algebra.JoinInner, step1, right, on, false, n+len(right.prov))
	l.keepAll(step1)
	l.provOf(right, n)
	return l.finish()
}

func (r *Rewriter) rewriteExcept(s *algebra.SetOp, left, right result) result {
	step1 := tupleJoinBack(s, left)
	l := over(step1, len(step1.copies)+len(right.prov))
	l.keepAll(step1)
	rSch := right.op.Schema()
	for _, p := range right.prov {
		l.null(rSch[p])
	}
	r.note("EXCEPT: right branch contributes no provenance (PI-CS left-only difference)")
	return l.finish()
}

// --- limit -----------------------------------------------------------------------

// rewriteLimit joins the limited original result back to the rewritten input
// on tuple equality. The paper does not define provenance through LIMIT; this
// join-back returns, for each emitted tuple, every input tuple with equal
// values — a documented over-approximation in the presence of duplicates.
func (r *Rewriter) rewriteLimit(l *algebra.Limit) (result, error) {
	in, err := r.rewrite(l.Input)
	if err != nil {
		return result{}, err
	}
	r.note("LIMIT: join-back on tuple equality (over-approximates under duplicates)")
	return tupleJoinBack(l, in), nil
}
