package core

import (
	"perm/internal/algebra"
	"perm/internal/sql"
)

// A layout is the projection every rule ends with: the input's columns kept as
// data (original columns first, the prefix invariant), then the provenance
// columns, each kept from the input or a typed NULL. It tracks the C-CS
// copies of what it keeps, and finishes into the rule's result. The input is
// one rewritten subtree or a join of two. A side without a copies table — a
// base relation, or the original operator of a join-back — has each of its
// columns copy itself.
type layout struct {
	in    algebra.Op
	inSch algebra.Schema
	// copies of the input's columns: sides[0] for those before split, sides[1]
	// (indexed from split) for the rest.
	sides [2][][]int
	split int

	exprs []algebra.Expr
	sch   algebra.Schema
	// from holds, per output column, the input column whose copies a data
	// column inherits, or one of the markers below.
	from []int
	// pos holds, per input column, its output position as provenance, -1
	// when it is not kept as provenance.
	pos []int
}

const (
	noCopies = -1 // a computed or aggregate data column: copies nothing
	ownCopy  = -2 // a provenance column kept from the input: copies itself
	nullProv = -3 // a typed-NULL provenance column: copies nothing
)

// newLayout starts a projection of width columns over in, whose columns
// carry the copies of left and, from column split on, of right.
func newLayout(in algebra.Op, width int, left [][]int, split int, right [][]int) layout {
	inSch := in.Schema()
	ints := make([]int, len(inSch), len(inSch)+width)
	for i := range ints {
		ints[i] = -1
	}
	return layout{
		in: in, inSch: inSch,
		sides: [2][][]int{left, right}, split: split,
		exprs: make([]algebra.Expr, 0, width),
		sch:   make(algebra.Schema, 0, width),
		from:  ints[len(inSch):],
		pos:   ints,
	}
}

// over starts a projection of width columns over one rewritten subtree.
func over(res result, width int) layout {
	return newLayout(res.op, width, res.copies, len(res.copies), nil)
}

// col references input column i.
func (l *layout) col(i int) algebra.Expr {
	c := l.inSch[i]
	return &algebra.ColIdx{Idx: i, Typ: c.Type, Name: c.Name}
}

// data appends a data column computing e, inheriting the copies of input
// column from (or noCopies).
func (l *layout) data(e algebra.Expr, c algebra.Column, from int) {
	l.exprs = append(l.exprs, e)
	l.sch = append(l.sch, c)
	l.from = append(l.from, from)
}

// keep appends input column i as data, column and copies unchanged.
func (l *layout) keep(i int) { l.data(l.col(i), l.inSch[i], i) }

// prov appends input column i as the provenance column c.
func (l *layout) prov(i int, c algebra.Column) {
	l.pos[i] = len(l.exprs)
	l.exprs = append(l.exprs, l.col(i))
	l.sch = append(l.sch, c)
	l.from = append(l.from, ownCopy)
}

// provOf appends the provenance columns of res, which starts at input column
// off.
func (l *layout) provOf(res result, off int) {
	for _, p := range res.prov {
		l.prov(off+p, l.inSch[off+p])
	}
}

// keepAll keeps every column of res, which starts the input, where it is:
// data as data, provenance as provenance.
func (l *layout) keepAll(res result) {
	k := 0
	for i := range res.copies {
		if k < len(res.prov) && res.prov[k] == i {
			l.prov(i, l.inSch[i])
			k++
		} else {
			l.keep(i)
		}
	}
}

// null appends a provenance column c of NULLs.
func (l *layout) null(c algebra.Column) {
	l.exprs = append(l.exprs, &algebra.Cast{E: algebra.NewNull(), To: c.Type})
	l.sch = append(l.sch, c)
	l.from = append(l.from, nullProv)
}

// finish builds the projection and its result: the provenance positions, and
// the copies of every output column — for a data column, those of the input
// column it inherits from that the layout kept as provenance.
func (l *layout) finish() result {
	var prov []int
	copies := make([][]int, len(l.from))
	arena := make([]int, 0, 2*len(l.from)) // the copies lists, end to end
	for i, f := range l.from {
		start := len(arena)
		switch {
		case f >= 0:
			side, off := 0, 0
			if f >= l.split {
				side, off = 1, l.split
			}
			if l.sides[side] == nil { // a base relation's column copies itself
				arena = append(arena, f-off)
			} else {
				arena = append(arena, l.sides[side][f-off]...)
			}
			kept := arena[:start]
			for _, p := range arena[start:] {
				if q := l.pos[off+p]; q >= 0 {
					kept = append(kept, q)
				}
			}
			arena = kept
		case f == ownCopy:
			arena = append(arena, i)
			fallthrough
		case f == nullProv:
			prov = append(prov, i)
		}
		if len(arena) > start {
			copies[i] = arena[start:len(arena):len(arena)]
		}
	}
	return result{op: &algebra.Project{Input: l.in, Exprs: l.exprs, Sch: l.sch}, prov: prov, copies: copies}
}

// joinBack builds op(T) ⋈≐ T⁺, the form the aggregation, DISTINCT, set
// operation and LIMIT rules share: the original result orig joined by kind to
// the rewritten input in where, for every i with on[i] set, orig's column i
// is not distinct from on[i], an expression over the join's columns (in's
// start at orig's width). With filter the condition is a selection above a
// cross product instead. It returns the layout of width columns over the join.
func joinBack(kind algebra.JoinKind, orig, in result, on []algebra.Expr, filter bool, width int) layout {
	origSch := orig.op.Schema()
	var cond algebra.Expr
	for i, e := range on {
		if e == nil {
			continue
		}
		eq := &algebra.Bin{Op: sql.OpNotDistinct, L: &algebra.ColIdx{Idx: i, Typ: origSch[i].Type, Name: origSch[i].Name}, R: e}
		if cond == nil {
			cond = eq
		} else {
			cond = &algebra.Bin{Op: sql.OpAnd, L: cond, R: eq}
		}
	}
	var joined algebra.Op
	if filter {
		joined = algebra.NewJoin(kind, orig.op, in.op, nil)
		if cond != nil {
			joined = &algebra.Select{Input: joined, Cond: cond}
		}
	} else {
		joined = algebra.NewJoin(kind, orig.op, in.op, cond)
	}
	return newLayout(joined, width, orig.copies, len(origSch), in.copies)
}

// tupleJoinBack joins orig back to in on tuple equality — every column of
// orig ≐ the same column of in — and keeps orig's columns as data, each
// inheriting the copies of its match, followed by in's provenance.
func tupleJoinBack(orig algebra.Op, in result) result {
	n := len(orig.Schema())
	inSch := in.op.Schema()
	on := make([]algebra.Expr, n)
	for i := range on {
		on[i] = &algebra.ColIdx{Idx: n + i, Typ: inSch[i].Type, Name: inSch[i].Name}
	}
	l := joinBack(algebra.JoinInner, result{op: orig}, in, on, false, n+len(in.prov))
	for i := 0; i < n; i++ {
		l.data(l.col(i), l.inSch[i], n+i)
	}
	l.provOf(in, n)
	return l.finish()
}
