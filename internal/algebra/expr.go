// Package algebra defines Perm's relational algebra: the resolved operator
// tree the analyzer produces, the provenance rewriter transforms, the planner
// optimizes and the executor runs. Expressions are fully resolved — column
// references are positional indices into the input row — which is what makes
// the rewrite rules compositional: a rule never needs to re-resolve names.
package algebra

import (
	"fmt"
	"strings"

	"perm/internal/sql"
	"perm/internal/value"
)

// Expr is a resolved scalar expression.
type Expr interface {
	// Type is the static result kind.
	Type() value.Kind
	// String renders the expression for plan display.
	String() string
}

// Const is a literal.
type Const struct{ Val value.Value }

// Type implements Expr.
func (c *Const) Type() value.Kind { return c.Val.Kind() }
func (c *Const) String() string   { return c.Val.SQLLiteral() }

// NewNull returns a NULL constant.
func NewNull() *Const { return &Const{Val: value.Null} }

// Param references bind parameter Index of the executing statement. The
// analyzer types it from the kinds of the bound arguments (prepared
// statements re-analyze — and re-cache — per distinct kind vector), so
// downstream rewrite and planning treat it exactly like a constant of that
// kind whose value is only known at execution time.
type Param struct {
	Index int
	Typ   value.Kind
}

// Type implements Expr.
func (p *Param) Type() value.Kind { return p.Typ }
func (p *Param) String() string   { return fmt.Sprintf("$%d", p.Index+1) }

// ColIdx references column Idx of the input row.
type ColIdx struct {
	Idx  int
	Typ  value.Kind
	Name string // display name only
}

// Type implements Expr.
func (c *ColIdx) Type() value.Kind { return c.Typ }
func (c *ColIdx) String() string {
	if c.Name != "" {
		return fmt.Sprintf("%s#%d", c.Name, c.Idx)
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// OuterRef references column Idx of the nearest enclosing correlation row
// (used inside Subplan expressions for correlated subqueries).
type OuterRef struct {
	Idx  int
	Typ  value.Kind
	Name string
}

// Type implements Expr.
func (o *OuterRef) Type() value.Kind { return o.Typ }
func (o *OuterRef) String() string {
	return fmt.Sprintf("outer(%s#%d)", o.Name, o.Idx)
}

// Bin applies a binary operator. Comparison and logic operators yield
// booleans under SQL three-valued logic; arithmetic follows numeric coercion.
type Bin struct {
	Op   sql.BinOp
	L, R Expr
}

// Type implements Expr.
func (b *Bin) Type() value.Kind {
	switch b.Op {
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod:
		return value.CommonKind(b.L.Type(), b.R.Type())
	case sql.OpConcat:
		return value.KindString
	default:
		return value.KindBool
	}
}

func (b *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Not negates a boolean expression (3VL).
type Not struct{ E Expr }

// Type implements Expr.
func (n *Not) Type() value.Kind { return value.KindBool }
func (n *Not) String() string   { return fmt.Sprintf("NOT %s", n.E) }

// Neg is unary minus.
type Neg struct{ E Expr }

// Type implements Expr.
func (n *Neg) Type() value.Kind { return n.E.Type() }
func (n *Neg) String() string   { return fmt.Sprintf("-%s", n.E) }

// IsNull tests for NULL (never returns NULL itself).
type IsNull struct {
	E   Expr
	Not bool
}

// Type implements Expr.
func (i *IsNull) Type() value.Kind { return value.KindBool }
func (i *IsNull) String() string {
	if i.Not {
		return fmt.Sprintf("%s IS NOT NULL", i.E)
	}
	return fmt.Sprintf("%s IS NULL", i.E)
}

// Func is a scalar function call.
type Func struct {
	Name string
	Args []Expr
	Typ  value.Kind
}

// Type implements Expr.
func (f *Func) Type() value.Kind { return f.Typ }
func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Case is a searched CASE (operand form is desugared by the analyzer).
type Case struct {
	Whens []CaseWhen
	Else  Expr // nil means NULL
	Typ   value.Kind
}

// CaseWhen is one arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Type implements Expr.
func (c *Case) Type() value.Kind { return c.Typ }
func (c *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// InList is expr IN (v1, v2, ...) over a literal/expression list.
type InList struct {
	E    Expr
	List []Expr
	Neg  bool
}

// Type implements Expr.
func (i *InList) Type() value.Kind { return value.KindBool }
func (i *InList) String() string {
	parts := make([]string, len(i.List))
	for j, a := range i.List {
		parts[j] = a.String()
	}
	not := ""
	if i.Neg {
		not = " NOT"
	}
	return fmt.Sprintf("%s%s IN (%s)", i.E, not, strings.Join(parts, ", "))
}

// Like is a SQL LIKE pattern match (% and _ wildcards).
type Like struct {
	E, Pattern Expr
	Neg        bool
}

// Type implements Expr.
func (l *Like) Type() value.Kind { return value.KindBool }
func (l *Like) String() string {
	not := ""
	if l.Neg {
		not = " NOT"
	}
	return fmt.Sprintf("%s%s LIKE %s", l.E, not, l.Pattern)
}

// Cast converts to a target kind.
type Cast struct {
	E  Expr
	To value.Kind
}

// Type implements Expr.
func (c *Cast) Type() value.Kind { return c.To }
func (c *Cast) String() string   { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }

// SubplanMode distinguishes how a nested plan is consumed by an expression.
type SubplanMode int

// Subplan consumption modes.
const (
	// ScalarSubplan yields the single value of a single-row, single-column
	// result (NULL when empty; error when more than one row).
	ScalarSubplan SubplanMode = iota
	// ExistsSubplan yields TRUE when the subplan produces at least one row.
	ExistsSubplan
	// InSubplan yields the SQL semantics of "needle IN (subplan)" with the
	// standard NULL behavior.
	InSubplan
	// AnySubplan yields "needle CmpOp ANY (subplan)": TRUE if the comparison
	// holds for some row, NULL if it is NULL for some row and TRUE for none,
	// else FALSE.
	AnySubplan
	// AllSubplan yields "needle CmpOp ALL (subplan)": FALSE if the
	// comparison fails for some row, NULL if it is NULL for some row and
	// FALSE for none, else TRUE (vacuously TRUE on empty).
	AllSubplan
)

// Subplan embeds a nested query plan inside an expression. When Correlated
// is true the plan contains OuterRef expressions that bind to the current
// input row at evaluation time; otherwise the executor evaluates the plan
// once and caches the result.
type Subplan struct {
	Mode       SubplanMode
	Plan       Op
	Needle     Expr      // for In/Any/All subplans
	CmpOp      sql.BinOp // comparison operator for Any/All subplans
	Neg        bool      // NOT EXISTS / NOT IN
	Correlated bool
}

// Type implements Expr.
func (s *Subplan) Type() value.Kind {
	if s.Mode == ScalarSubplan {
		sch := s.Plan.Schema()
		if len(sch) == 1 {
			return sch[0].Type
		}
		return value.KindNull
	}
	return value.KindBool
}

func (s *Subplan) String() string {
	switch s.Mode {
	case ExistsSubplan:
		if s.Neg {
			return "NOT EXISTS(subplan)"
		}
		return "EXISTS(subplan)"
	case InSubplan:
		if s.Neg {
			return fmt.Sprintf("%s NOT IN (subplan)", s.Needle)
		}
		return fmt.Sprintf("%s IN (subplan)", s.Needle)
	case AnySubplan:
		return fmt.Sprintf("%s %s ANY (subplan)", s.Needle, s.CmpOp)
	case AllSubplan:
		return fmt.Sprintf("%s %s ALL (subplan)", s.Needle, s.CmpOp)
	}
	return "(subplan)"
}

// --- expression utilities ----------------------------------------------------

// ShiftCols returns a copy of e with every ColIdx offset by delta. The
// provenance rewriter uses it to re-target expressions when an operator's
// input schema gains leading columns.
func ShiftCols(e Expr, delta int) Expr {
	return MapCols(e, func(c *ColIdx) Expr {
		return &ColIdx{Idx: c.Idx + delta, Typ: c.Typ, Name: c.Name}
	})
}

// Rewrite returns a copy of e rebuilt bottom-up: every node goes through fn
// once its operands are rewritten. A Subplan's Needle is an operand and its
// plan is not; fn receives a copy of the Subplan, which it may modify.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const, *Param, *ColIdx, *OuterRef:
	case *Bin:
		e = &Bin{Op: x.Op, L: Rewrite(x.L, fn), R: Rewrite(x.R, fn)}
	case *Not:
		e = &Not{E: Rewrite(x.E, fn)}
	case *Neg:
		e = &Neg{E: Rewrite(x.E, fn)}
	case *IsNull:
		e = &IsNull{E: Rewrite(x.E, fn), Not: x.Not}
	case *Func:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Rewrite(a, fn)
		}
		e = &Func{Name: x.Name, Args: args, Typ: x.Typ}
	case *Case:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{Cond: Rewrite(w.Cond, fn), Result: Rewrite(w.Result, fn)}
		}
		e = &Case{Whens: whens, Else: Rewrite(x.Else, fn), Typ: x.Typ}
	case *InList:
		list := make([]Expr, len(x.List))
		for i, a := range x.List {
			list[i] = Rewrite(a, fn)
		}
		e = &InList{E: Rewrite(x.E, fn), List: list, Neg: x.Neg}
	case *Like:
		e = &Like{E: Rewrite(x.E, fn), Pattern: Rewrite(x.Pattern, fn), Neg: x.Neg}
	case *Cast:
		e = &Cast{E: Rewrite(x.E, fn), To: x.To}
	case *Subplan:
		out := *x
		out.Needle = Rewrite(x.Needle, fn)
		e = &out
	default:
		panic(fmt.Sprintf("algebra.Rewrite: unknown expression %T", e))
	}
	return fn(e)
}

// MapCols rewrites e bottom-up, replacing every ColIdx via fn. Subplan plans
// keep their private column spaces, but a correlated plan's OuterRefs index
// the same row as e's columns and are remapped with them.
func MapCols(e Expr, fn func(*ColIdx) Expr) Expr {
	return Rewrite(e, func(x Expr) Expr {
		switch x := x.(type) {
		case *ColIdx:
			return fn(x)
		case *Subplan:
			if x.Correlated {
				x.Plan = mapPlanOuterCols(x.Plan, fn)
			}
		}
		return x
	})
}

// mapPlanOuterCols rewrites OuterRef indices inside a correlated subplan when
// the outer row layout changes. OuterRefs index the outer row, which is the
// same coordinate space as the ColIdx space being remapped.
func mapPlanOuterCols(op Op, fn func(*ColIdx) Expr) Op {
	return MapExprs(op, func(e Expr) Expr {
		return Rewrite(e, func(x Expr) Expr {
			o, ok := x.(*OuterRef)
			if !ok {
				return x
			}
			r := fn(&ColIdx{Idx: o.Idx, Typ: o.Typ, Name: o.Name})
			if ci, ok := r.(*ColIdx); ok {
				return &OuterRef{Idx: ci.Idx, Typ: ci.Typ, Name: ci.Name}
			}
			return r
		})
	})
}

// ColsUsed appends the ColIdx indices referenced by e to set.
func ColsUsed(e Expr, set map[int]bool) {
	MapCols(e, func(c *ColIdx) Expr {
		set[c.Idx] = true
		return c
	})
}

// HasSubplan reports whether e contains a Subplan node.
func HasSubplan(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*Subplan); ok {
			found = true
		}
	})
	return found
}

// HasOuterRef reports whether e contains an OuterRef anywhere outside nested
// subplans (WalkExpr does not descend into Subplan plans, whose outer refs
// bind to their own scope). Such expressions must evaluate on the statement's
// context — parallel workers do not inherit the correlation stack.
func HasOuterRef(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*OuterRef); ok {
			found = true
		}
	})
	return found
}

// WalkExpr calls fn on e and on every expression node under it, pre-order,
// without entering subplans' plans.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Bin:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Not:
		WalkExpr(x.E, fn)
	case *Neg:
		WalkExpr(x.E, fn)
	case *IsNull:
		WalkExpr(x.E, fn)
	case *Func:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Case:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(x.Else, fn)
	case *InList:
		WalkExpr(x.E, fn)
		for _, a := range x.List {
			WalkExpr(a, fn)
		}
	case *Like:
		WalkExpr(x.E, fn)
		WalkExpr(x.Pattern, fn)
	case *Cast:
		WalkExpr(x.E, fn)
	case *Subplan:
		WalkExpr(x.Needle, fn)
	}
}

// AndAll combines conditions with AND, returning nil for an empty list.
func AndAll(conds []Expr) Expr {
	var out Expr
	for _, c := range conds {
		if c == nil {
			continue
		}
		if out == nil {
			out = c
			continue
		}
		out = &Bin{Op: sql.OpAnd, L: out, R: c}
	}
	return out
}

// SplitAnd flattens a conjunction into its conjuncts.
func SplitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == sql.OpAnd {
		return append(SplitAnd(b.L), SplitAnd(b.R)...)
	}
	return []Expr{e}
}

// Sides reports which inputs of a join, whose left input has nLeft columns,
// e reads.
func Sides(e Expr, nLeft int) (left, right bool) {
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*ColIdx); ok {
			left, right = left || c.Idx < nLeft, right || c.Idx >= nLeft
		}
	})
	return left, right
}

// EquiKey is a join conjunct equating an expression over the left input
// with one over the right: what the hash join hashes on. Both read the join's
// input row, the left input's columns then the right's. NullEq marks IS NOT
// DISTINCT FROM, under which NULL matches NULL.
type EquiKey struct {
	Left, Right Expr
	NullEq      bool
}

// EquiKeyOf reads a conjunct of a join condition, over a left input of nLeft
// columns and the right input after it, as an equi key: an equality between
// an expression over the left input and one over the right, neither holding
// a subplan. An operand that reads no column counts as the left input's. The
// planner's build-side choice and the executor's hash join both decide with
// it.
func EquiKeyOf(conj Expr, nLeft int) (EquiKey, bool) {
	b, ok := conj.(*Bin)
	if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) || HasSubplan(conj) {
		return EquiKey{}, false
	}
	ll, lr := Sides(b.L, nLeft)
	rl, rr := Sides(b.R, nLeft)
	switch {
	case ll && lr || rl && rr || lr == rr:
		return EquiKey{}, false
	case lr:
		return EquiKey{Left: b.R, Right: b.L, NullEq: b.Op == sql.OpNotDistinct}, true
	}
	return EquiKey{Left: b.L, Right: b.R, NullEq: b.Op == sql.OpNotDistinct}, true
}
