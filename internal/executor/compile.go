// Compile-once expression evaluation, the executor's one evaluator. Every
// iterator lowers its expressions into closures at Open time, so the per-node
// type switch, binary-operator dispatch and scalar-function lookup run once
// per query instead of once per row; one-shot evaluation (constant folding,
// INSERT literals) compiles and calls. The closures implement SQL
// three-valued logic; the tree-walking reference they are tested against
// lives in evalref_test.go.
package executor

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// compiledExpr is an algebra.Expr lowered to a closure: row in, value out,
// under the context's correlation stack.
type compiledExpr func(row value.Row, ctx *Context) (value.Value, error)

// compiledPred is a compiled boolean predicate: TRUE accepts, FALSE and NULL
// reject (SQL WHERE semantics).
type compiledPred func(row value.Row, ctx *Context) (bool, error)

// Compile lowers e into a compiled evaluator. Compilation never fails;
// malformed nodes compile into closures that return the error the interpreter
// would have produced at evaluation time, preserving lazy-error semantics
// (e.g. a CASE arm that never runs never errors).
func Compile(e algebra.Expr) compiledExpr {
	switch x := e.(type) {
	case nil:
		return nil
	case *algebra.Const:
		v := x.Val
		return func(value.Row, *Context) (value.Value, error) { return v, nil }
	case *algebra.Param:
		idx := x.Index
		return func(_ value.Row, ctx *Context) (value.Value, error) {
			if idx < 0 || idx >= len(ctx.Params) {
				return value.Null, fmt.Errorf("executor: parameter $%d not bound (%d bound)", idx+1, len(ctx.Params))
			}
			return ctx.Params[idx], nil
		}
	case *algebra.ColIdx:
		idx := x.Idx
		return func(row value.Row, _ *Context) (value.Value, error) {
			if idx < 0 || idx >= len(row) {
				return value.Null, fmt.Errorf("executor: column index %d out of range (row width %d)", idx, len(row))
			}
			return row[idx], nil
		}
	case *algebra.OuterRef:
		idx := x.Idx
		return func(_ value.Row, ctx *Context) (value.Value, error) {
			outer, err := ctx.outerRow()
			if err != nil {
				return value.Null, err
			}
			if idx < 0 || idx >= len(outer) {
				return value.Null, fmt.Errorf("executor: outer index %d out of range (outer width %d)", idx, len(outer))
			}
			return outer[idx], nil
		}
	case *algebra.Bin:
		return compileBin(x)
	case *algebra.Not:
		in := Compile(x.E)
		return func(row value.Row, ctx *Context) (value.Value, error) {
			v, err := in(row, ctx)
			if err != nil || v.IsNull() {
				return value.Null, err
			}
			return value.NewBool(!v.Bool()), nil
		}
	case *algebra.Neg:
		in := Compile(x.E)
		return func(row value.Row, ctx *Context) (value.Value, error) {
			v, err := in(row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(v)
		}
	case *algebra.IsNull:
		in := Compile(x.E)
		not := x.Not
		return func(row value.Row, ctx *Context) (value.Value, error) {
			v, err := in(row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(v.IsNull() != not), nil
		}
	case *algebra.Func:
		return compileFunc(x)
	case *algebra.Case:
		return compileCase(x)
	case *algebra.InList:
		return compileInList(x)
	case *algebra.Like:
		ce, cp := Compile(x.E), Compile(x.Pattern)
		neg := x.Neg
		return func(row value.Row, ctx *Context) (value.Value, error) {
			s, err := ce(row, ctx)
			if err != nil {
				return value.Null, err
			}
			p, err := cp(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if s.IsNull() || p.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(likeMatch(s.String(), p.String()) != neg), nil
		}
	case *algebra.Cast:
		in := Compile(x.E)
		to := x.To
		return func(row value.Row, ctx *Context) (value.Value, error) {
			v, err := in(row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Coerce(v, to)
		}
	case *algebra.Subplan:
		return compileSubplan(x)
	}
	return func(value.Row, *Context) (value.Value, error) {
		return value.Null, fmt.Errorf("executor: cannot evaluate expression %T", e)
	}
}

// compilePred wraps a compiled expression with WHERE truth semantics.
func compilePred(e algebra.Expr) compiledPred {
	ce := Compile(e)
	return func(row value.Row, ctx *Context) (bool, error) {
		v, err := ce(row, ctx)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		if v.Kind() != value.KindBool {
			return false, fmt.Errorf("executor: predicate evaluated to %s, want boolean", v.Kind())
		}
		return v.Bool(), nil
	}
}

// CompilePredicate exposes predicate compilation to the engine (UPDATE/DELETE
// WHERE clauses run once-compiled over every heap row). The wrapper also
// polls for cancellation: DML decision loops run in the storage layer, which
// has no iterator machinery to poll for it.
func CompilePredicate(e algebra.Expr) func(row value.Row, ctx *Context) (bool, error) {
	pred := compilePred(e)
	return func(row value.Row, ctx *Context) (bool, error) {
		if err := ctx.tick(); err != nil {
			return false, err
		}
		return pred(row, ctx)
	}
}

// CompileExpr exposes expression compilation to the engine (UPDATE SET
// expressions).
func CompileExpr(e algebra.Expr) func(row value.Row, ctx *Context) (value.Value, error) {
	return Compile(e)
}

func compileBin(x *algebra.Bin) compiledExpr {
	l, r := Compile(x.L), Compile(x.R)
	switch x.Op {
	case sql.OpAnd:
		return func(row value.Row, ctx *Context) (value.Value, error) {
			lv, err := l(row, ctx)
			if err != nil {
				return value.Null, err
			}
			// Short-circuit with 3VL.
			if !lv.IsNull() && !lv.Bool() {
				return value.NewBool(false), nil
			}
			rv, err := r(row, ctx)
			if err != nil {
				return value.Null, err
			}
			switch {
			case !rv.IsNull() && !rv.Bool():
				return value.NewBool(false), nil
			case lv.IsNull() || rv.IsNull():
				return value.Null, nil
			default:
				return value.NewBool(true), nil
			}
		}
	case sql.OpOr:
		return func(row value.Row, ctx *Context) (value.Value, error) {
			lv, err := l(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if !lv.IsNull() && lv.Bool() {
				return value.NewBool(true), nil
			}
			rv, err := r(row, ctx)
			if err != nil {
				return value.Null, err
			}
			switch {
			case !rv.IsNull() && rv.Bool():
				return value.NewBool(true), nil
			case lv.IsNull() || rv.IsNull():
				return value.Null, nil
			default:
				return value.NewBool(false), nil
			}
		}
	case sql.OpNotDistinct:
		return func(row value.Row, ctx *Context) (value.Value, error) {
			lv, rv, err := evalPair(l, r, row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.NewBool(!value.Distinct(lv, rv)), nil
		}
	case sql.OpAdd:
		return compileArith(l, r, value.Add)
	case sql.OpSub:
		return compileArith(l, r, value.Sub)
	case sql.OpMul:
		return compileArith(l, r, value.Mul)
	case sql.OpDiv:
		return compileArith(l, r, value.Div)
	case sql.OpMod:
		return compileArith(l, r, value.Mod)
	case sql.OpConcat:
		return func(row value.Row, ctx *Context) (value.Value, error) {
			lv, rv, err := evalPair(l, r, row, ctx)
			if err != nil {
				return value.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return value.Null, nil
			}
			return value.NewString(lv.String() + rv.String()), nil
		}
	}
	// Ordering comparisons: resolve the comparison test once.
	var test func(c int) bool
	switch x.Op {
	case sql.OpEq:
		test = func(c int) bool { return c == 0 }
	case sql.OpNeq:
		test = func(c int) bool { return c != 0 }
	case sql.OpLt:
		test = func(c int) bool { return c < 0 }
	case sql.OpLte:
		test = func(c int) bool { return c <= 0 }
	case sql.OpGt:
		test = func(c int) bool { return c > 0 }
	case sql.OpGte:
		test = func(c int) bool { return c >= 0 }
	default:
		op := x.Op
		return func(value.Row, *Context) (value.Value, error) {
			return value.Null, fmt.Errorf("executor: unknown binary operator %v", op)
		}
	}
	return func(row value.Row, ctx *Context) (value.Value, error) {
		lv, rv, err := evalPair(l, r, row, ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() || rv.IsNull() {
			return value.Null, nil
		}
		c, err := value.Compare(lv, rv)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(test(c)), nil
	}
}

func evalPair(l, r compiledExpr, row value.Row, ctx *Context) (value.Value, value.Value, error) {
	lv, err := l(row, ctx)
	if err != nil {
		return value.Null, value.Null, err
	}
	rv, err := r(row, ctx)
	if err != nil {
		return value.Null, value.Null, err
	}
	return lv, rv, nil
}

func compileArith(l, r compiledExpr, op func(a, b value.Value) (value.Value, error)) compiledExpr {
	return func(row value.Row, ctx *Context) (value.Value, error) {
		lv, rv, err := evalPair(l, r, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return op(lv, rv)
	}
}

func compileFunc(x *algebra.Func) compiledExpr {
	name := x.Name
	b, known := lookupBuiltin(name)
	if !known {
		return func(value.Row, *Context) (value.Value, error) {
			return value.Null, fmt.Errorf("executor: unknown function %q", name)
		}
	}
	cargs := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		cargs[i] = Compile(a)
	}
	// The argument scratch is safe to reuse: a closure instance belongs to a
	// single iterator and is never re-entered (nested calls evaluate through
	// their own closures, subplans through freshly built iterator trees).
	scratch := make([]value.Value, len(cargs))
	return func(row value.Row, ctx *Context) (value.Value, error) {
		for i, ca := range cargs {
			v, err := ca(row, ctx)
			if err != nil {
				return value.Null, err
			}
			scratch[i] = v
		}
		if !b.tolerant {
			for _, a := range scratch {
				if a.IsNull() {
					return value.Null, nil
				}
			}
		}
		return b.fn(scratch)
	}
}

func compileCase(x *algebra.Case) compiledExpr {
	type compiledWhen struct {
		cond, result compiledExpr
	}
	whens := make([]compiledWhen, len(x.Whens))
	for i, w := range x.Whens {
		whens[i] = compiledWhen{cond: Compile(w.Cond), result: Compile(w.Result)}
	}
	els := Compile(x.Else)
	return func(row value.Row, ctx *Context) (value.Value, error) {
		for _, w := range whens {
			c, err := w.cond(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if !c.IsNull() && c.Bool() {
				return w.result(row, ctx)
			}
		}
		if els != nil {
			return els(row, ctx)
		}
		return value.Null, nil
	}
}

func compileInList(x *algebra.InList) compiledExpr {
	ce := Compile(x.E)
	clist := make([]compiledExpr, len(x.List))
	for i, le := range x.List {
		clist[i] = Compile(le)
	}
	neg := x.Neg
	return func(row value.Row, ctx *Context) (value.Value, error) {
		needle, err := ce(row, ctx)
		if err != nil {
			return value.Null, err
		}
		if needle.IsNull() {
			return value.Null, nil
		}
		sawNull := false
		for _, le := range clist {
			v, err := le(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if v.IsNull() {
				sawNull = true
				continue
			}
			if value.Equal(needle, v) {
				return value.NewBool(!neg), nil
			}
		}
		if sawNull {
			return value.Null, nil
		}
		return value.NewBool(neg), nil
	}
}

// compileAll compiles a slice of expressions.
func compileAll(exprs []algebra.Expr) []compiledExpr {
	out := make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		out[i] = Compile(e)
	}
	return out
}

// compileSubplan lowers a scalar/EXISTS/IN/ANY/ALL subquery: the needle and
// the quantified comparison compile here, once; the nested plan's own
// iterators compile their expressions when that plan first opens.
func compileSubplan(sp *algebra.Subplan) compiledExpr {
	needle := Compile(sp.Needle)
	// ANY/ALL compare the needle with each element over a scratch pair (safe
	// to reuse for the reason compileFunc's argument scratch is).
	var cmp compiledExpr
	pair := make(value.Row, 2)
	var key []byte
	if sp.Mode == algebra.AnySubplan || sp.Mode == algebra.AllSubplan {
		cmp = compileBin(&algebra.Bin{Op: sp.CmpOp, L: &algebra.ColIdx{Idx: 0}, R: &algebra.ColIdx{Idx: 1}})
	}
	return func(row value.Row, ctx *Context) (value.Value, error) {
		var rows []value.Row
		if !sp.Correlated {
			cached, ok := ctx.subplanCache[sp]
			if !ok {
				ctx.SubplanMisses++
				res, err := Run(ctx, sp.Plan)
				cached = &subplanResult{err: err}
				if err == nil {
					cached.rows = res.Rows
				}
				ctx.subplanCache[sp] = cached
			} else {
				ctx.SubplanHits++
			}
			if cached.err != nil {
				return value.Null, cached.err
			}
			// Fast path: uncorrelated IN membership via hash lookup. The probe key
			// is built in the closure's scratch buffer: no allocation per outer row.
			if sp.Mode == algebra.InSubplan {
				n, err := needle(row, ctx)
				if err != nil || n.IsNull() {
					return value.Null, err
				}
				set, sawNull := cached.membership()
				key = n.AppendKey(key[:0])
				if set.find(key) >= 0 {
					return value.NewBool(!sp.Neg), nil
				}
				if sawNull {
					return value.Null, nil
				}
				return value.NewBool(sp.Neg), nil
			}
			rows = cached.rows
		} else {
			// Correlated: re-open the cached iterator tree under this outer row
			// (compile-once — the tree is built on first use, see subplanIter).
			it, err := ctx.subplanIter(sp)
			if err != nil {
				return value.Null, err
			}
			ctx.pushOuter(row)
			rows, err = reopenAndDrain(it, ctx)
			ctx.popOuter()
			if err != nil {
				return value.Null, err
			}
		}
		switch sp.Mode {
		case algebra.ScalarSubplan:
			if len(rows) == 0 {
				return value.Null, nil
			}
			if len(rows) > 1 {
				return value.Null, fmt.Errorf("scalar subquery produced more than one row")
			}
			return rows[0][0], nil
		case algebra.ExistsSubplan:
			return value.NewBool((len(rows) > 0) != sp.Neg), nil
		case algebra.InSubplan:
			n, err := needle(row, ctx)
			if err != nil || n.IsNull() {
				return value.Null, err
			}
			sawNull := false
			for _, r := range rows {
				v := r[0]
				if v.IsNull() {
					sawNull = true
					continue
				}
				if value.Equal(n, v) {
					return value.NewBool(!sp.Neg), nil
				}
			}
			if sawNull {
				return value.Null, nil
			}
			return value.NewBool(sp.Neg), nil
		case algebra.AnySubplan, algebra.AllSubplan:
			var err error
			if pair[0], err = needle(row, ctx); err != nil {
				return value.Null, err
			}
			sawNull := false
			for _, r := range rows {
				pair[1] = r[0]
				c, err := cmp(pair, ctx)
				if err != nil {
					return value.Null, err
				}
				if c.IsNull() {
					sawNull = true
					continue
				}
				if sp.Mode == algebra.AnySubplan && c.Bool() {
					return value.NewBool(true), nil
				}
				if sp.Mode == algebra.AllSubplan && !c.Bool() {
					return value.NewBool(false), nil
				}
			}
			if sawNull {
				return value.Null, nil
			}
			return value.NewBool(sp.Mode == algebra.AllSubplan), nil
		}
		return value.Null, fmt.Errorf("executor: unknown subplan mode %d", sp.Mode)
	}
}

// likeMatch implements SQL LIKE with % (any sequence) and _ (any single
// character), case sensitively, via iterative backtracking.
func likeMatch(s, pattern string) bool {
	// Convert to runes for correct _ semantics.
	str, pat := []rune(s), []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(str) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == str[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}
