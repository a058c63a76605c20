package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// fusedValues are the operands the fused kernel must treat exactly as
// compileBin does: INTs (the extremes too), FLOATs on and off the integers,
// NaN and the infinities, NULL, and kinds an INT does not compare with.
var fusedValues = []value.Value{
	value.NewInt(-2), value.NewInt(0), value.NewInt(1), value.NewInt(3),
	value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64),
	value.NewFloat(1), value.NewFloat(-1.5), value.NewFloat(2.5), value.NewFloat(math.NaN()),
	value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(1 << 63),
	value.Null, value.NewString("x"), value.NewBool(true),
}

var cmpOps = []sql.BinOp{sql.OpEq, sql.OpNeq, sql.OpLt, sql.OpLte, sql.OpGt, sql.OpGte}

// TestFusedPredMatchesCompileBin: the fused kernel compilePred makes of a
// column compared with a constant or a parameter, or of an AND-chain of such
// comparisons, gives compileBin's truth under the WHERE wrapper and its error
// text, for all six operators in both operand orders, NULL on either side,
// INT/FLOAT mixes, incomparable kinds, a column off the row, an unbound
// parameter, and chains whose later terms are NULL or fail.
func TestFusedPredMatchesCompileBin(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pick := func() value.Value { return fusedValues[rng.Intn(len(fusedValues))] }
	term := func() algebra.Expr {
		c := &algebra.ColIdx{Idx: rng.Intn(5) - 1, Typ: value.KindInt} // -1 and 3 are off the row
		var other algebra.Expr = &algebra.Const{Val: pick()}
		if rng.Intn(2) == 0 {
			other = &algebra.Param{Index: rng.Intn(4) - 1, Typ: value.KindInt} // -1 and 2 are unbound
		}
		b := &algebra.Bin{Op: cmpOps[rng.Intn(len(cmpOps))], L: c, R: other}
		if rng.Intn(2) == 0 {
			b.L, b.R = other, c
		}
		return b
	}
	var chain func(n int) algebra.Expr
	chain = func(n int) algebra.Expr {
		if n == 1 {
			return term()
		}
		k := 1 + rng.Intn(n-1) // any tree shape of ANDs
		return &algebra.Bin{Op: sql.OpAnd, L: chain(k), R: chain(n - k)}
	}
	ctx := NewContext(nil)
	fused := 0
	for i := 0; i < 20000; i++ {
		e := chain(1 + rng.Intn(4))
		if _, ok := fuseTerms(nil, e); !ok {
			t.Fatalf("%s did not fuse", e)
		}
		got, want := compilePred(e), wherePred(Compile(e))
		for j := 0; j < 8; j++ {
			row := value.Row{pick(), pick(), pick()}
			ctx.Params = []value.Value{pick(), pick()}
			gb, gerr := got(row, ctx)
			wb, werr := want(row, ctx)
			if gb != wb || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s on %v with params %v: fused (%v, %v), compileBin (%v, %v)", e, row, ctx.Params, gb, gerr, wb, werr)
			}
			fused++
		}
	}
	t.Logf("%d evaluations agreed", fused)
}

// TestFusionLeavesOtherShapes: only comparisons of a column with a constant
// or a parameter, and AND-chains of them, fuse.
func TestFusionLeavesOtherShapes(t *testing.T) {
	c0, c1 := col(0, value.KindInt), col(1, value.KindInt)
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	for _, e := range []algebra.Expr{
		bin(sql.OpEq, c0, c1),
		bin(sql.OpEq, intConst(1), intConst(2)),
		bin(sql.OpOr, bin(sql.OpEq, c0, intConst(1)), bin(sql.OpEq, c0, intConst(2))),
		bin(sql.OpAnd, bin(sql.OpEq, c0, intConst(1)), &algebra.IsNull{E: c1}),
		bin(sql.OpEq, bin(sql.OpAdd, c0, intConst(1)), intConst(2)),
		bin(sql.OpNotDistinct, c0, intConst(1)),
		&algebra.Not{E: bin(sql.OpEq, c0, intConst(1))},
	} {
		if _, ok := fuseTerms(nil, e); ok {
			t.Errorf("%s fused", e)
		}
	}
}

// TestIntRangeHoldsEveryMatch: the bounds a scan skips chunks by hold every
// INT the comparison accepts, and for every operator but <> only those.
func TestIntRangeHoldsEveryMatch(t *testing.T) {
	probes := func(v value.Value, lo, hi int64) []int64 {
		out := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		for _, x := range []int64{lo, hi, v.Int()} {
			for d := int64(-2); d <= 2; d++ {
				if y := x + d; (d < 0) == (y < x) { // no wraparound
					out = append(out, y)
				}
			}
		}
		return out
	}
	for _, op := range cmpOps {
		terms, _ := fuseTerms(nil, &algebra.Bin{Op: op, L: col(0, value.KindInt), R: intConst(0)})
		accept := terms[0].accept
		for _, v := range fusedValues {
			lo, hi, ok := intRange(accept, v)
			if k := v.Kind(); ok != (k == value.KindInt || k == value.KindFloat || k == value.KindNull) {
				t.Fatalf("intRange(%v %v) ok = %v", op, v, ok)
			}
			if !ok {
				continue
			}
			for _, i := range probes(v, lo, hi) {
				matches := false
				if !v.IsNull() {
					c, err := value.Compare(value.NewInt(i), v)
					if err != nil {
						t.Fatal(err)
					}
					matches = accept>>(c+1)&1 != 0
				}
				inside := lo <= i && i <= hi
				if matches && !inside {
					t.Fatalf("%d %v %v matches outside [%d, %d]", i, op, v, lo, hi)
				}
				if inside && !matches && op != sql.OpNeq {
					t.Fatalf("%d %v %v does not match inside [%d, %d]", i, op, v, lo, hi)
				}
			}
		}
	}
}

// TestScanIterSizeClass: pruning rides behind the scan's one aux pointer.
func TestScanIterSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(scanIter{}); n > 64 {
		t.Fatalf("scanIter is %d bytes, past the 64-byte size class", n)
	}
}
