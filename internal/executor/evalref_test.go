package executor

import (
	"fmt"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// This file is the tree-walking reference evaluator: the straightforward
// reading of SQL expression semantics that TestCompileMatchesEval holds the
// compiled evaluator (compile.go) to. Nothing outside the tests calls it.

// Eval evaluates a resolved expression against a row under the context's
// correlation stack, with SQL NULL semantics throughout.
func Eval(e algebra.Expr, row value.Row, ctx *Context) (value.Value, error) {
	switch x := e.(type) {
	case *algebra.Const:
		return x.Val, nil
	case *algebra.Param:
		if x.Index < 0 || x.Index >= len(ctx.Params) {
			return value.Null, fmt.Errorf("executor: parameter $%d not bound (%d bound)", x.Index+1, len(ctx.Params))
		}
		return ctx.Params[x.Index], nil
	case *algebra.ColIdx:
		if x.Idx < 0 || x.Idx >= len(row) {
			return value.Null, fmt.Errorf("executor: column index %d out of range (row width %d)", x.Idx, len(row))
		}
		return row[x.Idx], nil
	case *algebra.OuterRef:
		outer, err := ctx.outerRow()
		if err != nil {
			return value.Null, err
		}
		if x.Idx < 0 || x.Idx >= len(outer) {
			return value.Null, fmt.Errorf("executor: outer index %d out of range (outer width %d)", x.Idx, len(outer))
		}
		return outer[x.Idx], nil
	case *algebra.Bin:
		return evalBin(x, row, ctx)
	case *algebra.Not:
		v, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			return value.Null, nil
		}
		return value.NewBool(!v.Bool()), nil
	case *algebra.Neg:
		v, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Neg(v)
	case *algebra.IsNull:
		v, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(v.IsNull() != x.Not), nil
	case *algebra.Func:
		return evalFunc(x, row, ctx)
	case *algebra.Case:
		for _, w := range x.Whens {
			c, err := Eval(w.Cond, row, ctx)
			if err != nil {
				return value.Null, err
			}
			if !c.IsNull() && c.Bool() {
				return Eval(w.Result, row, ctx)
			}
		}
		if x.Else != nil {
			return Eval(x.Else, row, ctx)
		}
		return value.Null, nil
	case *algebra.InList:
		needle, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return evalInMembership(needle, x.List, row, ctx, x.Neg)
	case *algebra.Like:
		s, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		p, err := Eval(x.Pattern, row, ctx)
		if err != nil {
			return value.Null, err
		}
		if s.IsNull() || p.IsNull() {
			return value.Null, nil
		}
		m := likeMatch(s.String(), p.String())
		return value.NewBool(m != x.Neg), nil
	case *algebra.Cast:
		v, err := Eval(x.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Coerce(v, x.To)
	case *algebra.Subplan:
		return Compile(x)(row, ctx) // subplans run iterator trees, which compile
	}
	return value.Null, fmt.Errorf("executor: cannot evaluate expression %T", e)
}

// EvalBool evaluates a predicate and reports whether it is TRUE (NULL and
// FALSE both reject).
func EvalBool(e algebra.Expr, row value.Row, ctx *Context) (bool, error) {
	v, err := Eval(e, row, ctx)
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

func evalBin(x *algebra.Bin, row value.Row, ctx *Context) (value.Value, error) {
	switch x.Op {
	case sql.OpAnd, sql.OpOr:
		l, err := Eval(x.L, row, ctx)
		if err != nil {
			return value.Null, err
		}
		// Short-circuit with 3VL.
		if x.Op == sql.OpAnd {
			if !l.IsNull() && !l.Bool() {
				return value.NewBool(false), nil
			}
		} else {
			if !l.IsNull() && l.Bool() {
				return value.NewBool(true), nil
			}
		}
		r, err := Eval(x.R, row, ctx)
		if err != nil {
			return value.Null, err
		}
		if x.Op == sql.OpAnd {
			switch {
			case !r.IsNull() && !r.Bool():
				return value.NewBool(false), nil
			case l.IsNull() || r.IsNull():
				return value.Null, nil
			default:
				return value.NewBool(true), nil
			}
		}
		switch {
		case !r.IsNull() && r.Bool():
			return value.NewBool(true), nil
		case l.IsNull() || r.IsNull():
			return value.Null, nil
		default:
			return value.NewBool(false), nil
		}
	}
	l, err := Eval(x.L, row, ctx)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(x.R, row, ctx)
	if err != nil {
		return value.Null, err
	}
	switch x.Op {
	case sql.OpNotDistinct:
		return value.NewBool(!value.Distinct(l, r)), nil
	case sql.OpAdd:
		return value.Add(l, r)
	case sql.OpSub:
		return value.Sub(l, r)
	case sql.OpMul:
		return value.Mul(l, r)
	case sql.OpDiv:
		return value.Div(l, r)
	case sql.OpMod:
		return value.Mod(l, r)
	case sql.OpConcat:
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		return value.NewString(l.String() + r.String()), nil
	}
	// Ordering comparisons.
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	c, err := value.Compare(l, r)
	if err != nil {
		return value.Null, err
	}
	switch x.Op {
	case sql.OpEq:
		return value.NewBool(c == 0), nil
	case sql.OpNeq:
		return value.NewBool(c != 0), nil
	case sql.OpLt:
		return value.NewBool(c < 0), nil
	case sql.OpLte:
		return value.NewBool(c <= 0), nil
	case sql.OpGt:
		return value.NewBool(c > 0), nil
	case sql.OpGte:
		return value.NewBool(c >= 0), nil
	}
	return value.Null, fmt.Errorf("executor: unknown binary operator %v", x.Op)
}

// evalInMembership implements SQL IN semantics over an evaluated list: TRUE
// on a match, NULL if no match but a NULL was present, else FALSE.
func evalInMembership(needle value.Value, list []algebra.Expr, row value.Row, ctx *Context, neg bool) (value.Value, error) {
	if needle.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, le := range list {
		v, err := Eval(le, row, ctx)
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

// evalFunc evaluates a scalar function call through the builtin registry.
func evalFunc(f *algebra.Func, row value.Row, ctx *Context) (value.Value, error) {
	b, ok := lookupBuiltin(f.Name)
	if !ok {
		return value.Null, fmt.Errorf("executor: unknown function %q", f.Name)
	}
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := Eval(a, row, ctx)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	if !b.tolerant {
		for _, a := range args {
			if a.IsNull() {
				return value.Null, nil
			}
		}
	}
	return b.fn(args)
}
