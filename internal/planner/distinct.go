package planner

import (
	"reflect"

	"perm/internal/algebra"
	"perm/internal/sql"
)

// LowerDistinct rewrites every aggregation holding a DISTINCT aggregate into
// aggregations over deduplicated inputs, so the executor's aggregation only
// ever folds flat, mergeable states:
//
//	α_{G; f(DISTINCT x), h(z)}(T) = π(α_{G; f(x)}(δ(π_{G,x} T)) ⋈_G α_{G; h(z)}(T))
//
// There is one branch per distinct argument, shared by the aggregates over
// it, and one for the plain aggregates when there are any; MIN and MAX
// ignore DISTINCT and stay plain. The branches join on the group columns
// with IS NOT DISTINCT FROM (on the empty key without GROUP BY, where every
// branch holds one row), and the projection restores the aggregation's
// schema. δ keeps the first occurrence of each (group, argument) pair in
// input order, spilled or not, so each branch meets its groups in T's
// first-appearance order and folds a group's arguments in the order T first
// holds them; the hash join streams its left branch, so the result has the
// groups, the order and the bits the aggregation had. Subplans are lowered
// too. It returns op itself when nothing holds a DISTINCT aggregate.
//
// Optimize ends with it, and a session with the optimizer off applies it
// alone: the executor refuses an unlowered DISTINCT aggregate.
func LowerDistinct(op algebra.Op) algebra.Op {
	if !anyDistinct(op) {
		return op
	}
	op, _ = lower(op)
	return op
}

// anyDistinct reports whether op, or a subplan in it, holds a DISTINCT
// aggregate. Every plan takes it, so it walks the plan once.
func anyDistinct(op algebra.Op) (found bool) {
	algebra.Walk(op, func(o algebra.Op) {
		if a, ok := o.(*algebra.Agg); ok && holdsDistinct(a) {
			found = true
		}
		algebra.MapOwnExprs(o, func(e algebra.Expr) algebra.Expr {
			algebra.WalkExpr(e, func(x algebra.Expr) {
				if sp, ok := x.(*algebra.Subplan); ok && !found {
					found = anyDistinct(sp.Plan)
				}
			})
			return e
		})
	})
	return found
}

func lower(op algebra.Op) (algebra.Op, bool) {
	op, changed := mapChildren(op, lower)
	lowered := algebra.MapOwnExprs(op, func(e algebra.Expr) algebra.Expr {
		if !algebra.HasSubplan(e) {
			return e
		}
		return algebra.Rewrite(e, func(x algebra.Expr) algebra.Expr {
			if sp, ok := x.(*algebra.Subplan); ok {
				sp.Plan = LowerDistinct(sp.Plan)
			}
			return x
		})
	})
	if a, ok := lowered.(*algebra.Agg); ok && holdsDistinct(a) {
		return lowerAgg(a), true
	}
	return lowered, changed || lowered != op
}

func holdsDistinct(a *algebra.Agg) bool {
	for _, ae := range a.Aggs {
		if ae.Distinct {
			return true
		}
	}
	return false
}

// aggBranch is one aggregation of a lowered Agg: over the input itself
// (arg nil) or over its distinct (group, arg) pairs, with the numbers of
// the Agg's aggregates it computes.
type aggBranch struct {
	arg  algebra.Expr
	aggs []int
}

func lowerAgg(a *algebra.Agg) algebra.Op {
	nG := len(a.GroupBy)
	var branches []*aggBranch
	var plain *aggBranch
	for i, ae := range a.Aggs {
		if !ae.Distinct || ae.Arg == nil || ae.Func == algebra.AggMin || ae.Func == algebra.AggMax {
			if plain == nil {
				plain = &aggBranch{}
				branches = append([]*aggBranch{plain}, branches...)
			}
			plain.aggs = append(plain.aggs, i)
			continue
		}
		var b *aggBranch
		for _, o := range branches {
			if o != plain && reflect.DeepEqual(o.arg, ae.Arg) {
				b = o
				break
			}
		}
		if b == nil {
			b = &aggBranch{arg: ae.Arg}
			branches = append(branches, b)
		}
		b.aggs = append(b.aggs, i)
	}

	// Each branch, and where the Agg's columns end up in the joined rows.
	cols := make([]int, len(a.Sch))
	for g := range nG {
		cols[g] = g
	}
	var joined algebra.Op
	for _, b := range branches {
		op := b.build(a)
		if len(branches) == 1 {
			return op // the aggregates keep their order, and there is no join
		}
		width := 0
		if joined != nil {
			width = len(joined.Schema())
		}
		for j, i := range b.aggs {
			cols[nG+i] = width + nG + j
		}
		if joined == nil {
			joined = op
			continue
		}
		var keys []algebra.Expr
		for g := range nG {
			keys = append(keys, &algebra.Bin{Op: sql.OpNotDistinct,
				L: &algebra.ColIdx{Idx: g, Typ: a.Sch[g].Type, Name: a.Sch[g].Name},
				R: &algebra.ColIdx{Idx: width + g, Typ: a.Sch[g].Type, Name: a.Sch[g].Name}})
		}
		kind := algebra.JoinInner
		if nG == 0 {
			kind = algebra.JoinCross
		}
		joined = algebra.NewJoin(kind, joined, op, algebra.AndAll(keys))
	}
	exprs := make([]algebra.Expr, len(a.Sch))
	for i, c := range a.Sch {
		exprs[i] = &algebra.ColIdx{Idx: cols[i], Typ: c.Type, Name: c.Name}
	}
	return &algebra.Project{Input: joined, Exprs: exprs, Sch: a.Sch}
}

// build makes the branch's aggregation, with the Agg's group columns and its
// own aggregates' columns, their DISTINCT flags dropped: α_{G; aggs}(T), or
// α_{G; aggs}(δ(π_{G,arg} T)).
func (b *aggBranch) build(a *algebra.Agg) algebra.Op {
	nG := len(a.GroupBy)
	out := &algebra.Agg{Input: a.Input, GroupBy: a.GroupBy, Sch: a.Sch[:nG:nG]}
	for _, i := range b.aggs {
		out.Aggs = append(out.Aggs, algebra.AggExpr{Func: a.Aggs[i].Func, Arg: a.Aggs[i].Arg})
		out.Sch = append(out.Sch, a.Sch[nG+i])
	}
	if b.arg == nil {
		return out
	}
	pairs := &algebra.Project{Input: a.Input, Exprs: append(a.GroupBy[:nG:nG], b.arg),
		Sch: append(a.Sch[:nG:nG], algebra.Column{Name: b.arg.String(), Type: b.arg.Type()})}
	out.Input, out.GroupBy = &algebra.Distinct{Input: pairs}, algebra.IdentityExprs(a.Sch[:nG])
	arg := &algebra.ColIdx{Idx: nG, Typ: b.arg.Type()}
	for j := range out.Aggs {
		out.Aggs[j].Arg = arg
	}
	return out
}
