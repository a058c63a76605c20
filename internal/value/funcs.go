package value

import (
	"fmt"
	"math"
	"strings"
)

// scalarFunc is one scalar SQL function: the arity and result kind the
// analyzer checks and types a call by, and the body and NULL rule the
// executor evaluates it with. The table below is the only list of them.
type scalarFunc struct {
	minArgs, maxArgs int // maxArgs -1: variadic
	result           func(args []Kind) Kind
	body             func(args []Value) (Value, error)
	// tolerant bodies see NULL arguments (COALESCE-style NULL rules); a
	// strict function returns NULL for any NULL argument before its body runs.
	tolerant bool
}

// LookupFunc resolves a scalar function by lower-case name.
func LookupFunc(name string) (*scalarFunc, bool) {
	f, ok := scalarFuncs[name]
	return f, ok
}

// Accepts reports whether the function takes n arguments.
func (f *scalarFunc) Accepts(n int) bool {
	return n >= f.minArgs && (f.maxArgs < 0 || n <= f.maxArgs)
}

// Arity describes the argument counts the function takes, for an error.
func (f *scalarFunc) Arity() string {
	if f.maxArgs < 0 {
		return fmt.Sprintf("at least %d", f.minArgs)
	}
	if f.minArgs == f.maxArgs {
		return fmt.Sprintf("%d", f.minArgs)
	}
	return fmt.Sprintf("%d to %d", f.minArgs, f.maxArgs)
}

// Result is the kind of a call's result, given its arguments' kinds.
func (f *scalarFunc) Result(args []Kind) Kind { return f.result(args) }

// Call evaluates the function over evaluated arguments, NULL rule first.
func (f *scalarFunc) Call(args []Value) (Value, error) {
	if !f.tolerant {
		for _, a := range args {
			if a.IsNull() {
				return Null, nil
			}
		}
	}
	return f.body(args)
}

func fixed(k Kind) func([]Kind) Kind { return func([]Kind) Kind { return k } }

func sameAsFirst(args []Kind) Kind {
	if len(args) > 0 {
		return args[0]
	}
	return KindNull
}

func commonOfAll(args []Kind) Kind {
	k := KindNull
	for _, a := range args {
		k = CommonKind(k, a)
	}
	return k
}

var scalarFuncs = map[string]*scalarFunc{
	"coalesce": {1, -1, commonOfAll, func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}, true},
	"nullif": {2, 2, sameAsFirst, func(args []Value) (Value, error) {
		if !args[0].IsNull() && !args[1].IsNull() && Equal(args[0], args[1]) {
			return Null, nil
		}
		return args[0], nil
	}, true},
	"concat": {1, -1, fixed(KindString), func(args []Value) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return NewString(b.String()), nil
	}, true},
	"greatest": {1, -1, commonOfAll, bestOf(1), true},
	"least":    {1, -1, commonOfAll, bestOf(-1), true},
	"upper": {1, 1, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.ToUpper(args[0].String())), nil
	}, false},
	"lower": {1, 1, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.ToLower(args[0].String())), nil
	}, false},
	"length": {1, 1, fixed(KindInt), func(args []Value) (Value, error) {
		return NewInt(int64(len([]rune(args[0].String())))), nil
	}, false},
	"abs": {1, 1, sameAsFirst, func(args []Value) (Value, error) {
		if args[0].Kind() == KindInt {
			return NewInt(max(args[0].Int(), -args[0].Int())), nil
		}
		return NewFloat(math.Abs(args[0].Float())), nil
	}, false},
	"substr":    {2, 3, fixed(KindString), substr, false},
	"substring": {2, 3, fixed(KindString), substr, false},
	"trim": {1, 1, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.TrimSpace(args[0].String())), nil
	}, false},
	"ltrim": {1, 1, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.TrimLeft(args[0].String(), " \t\n")), nil
	}, false},
	"rtrim": {1, 1, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.TrimRight(args[0].String(), " \t\n")), nil
	}, false},
	"replace": {3, 3, fixed(KindString), func(args []Value) (Value, error) {
		return NewString(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	}, false},
	"round": {1, 2, fixed(KindFloat), func(args []Value) (Value, error) {
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].Int())
		}
		scale := math.Pow(10, float64(digits))
		return NewFloat(math.Round(args[0].Float()*scale) / scale), nil
	}, false},
	"floor":   {1, 1, fixed(KindFloat), floatOf(math.Floor), false},
	"ceil":    {1, 1, fixed(KindFloat), floatOf(math.Ceil), false},
	"ceiling": {1, 1, fixed(KindFloat), floatOf(math.Ceil), false},
	"sqrt": {1, 1, fixed(KindFloat), func(args []Value) (Value, error) {
		f := args[0].Float()
		if f < 0 {
			return Null, fmt.Errorf("sqrt of negative number")
		}
		return NewFloat(math.Sqrt(f)), nil
	}, false},
	"power": {2, 2, fixed(KindFloat), func(args []Value) (Value, error) {
		return NewFloat(math.Pow(args[0].Float(), args[1].Float())), nil
	}, false},
	"mod": {2, 2, fixed(KindInt), func(args []Value) (Value, error) {
		return Mod(args[0], args[1])
	}, false},
	"strpos": {2, 2, fixed(KindInt), func(args []Value) (Value, error) {
		return NewInt(int64(strings.Index(args[0].String(), args[1].String()) + 1)), nil
	}, false},
}

// floatOf lifts a float function of one argument to a function body.
func floatOf(fn func(float64) float64) func([]Value) (Value, error) {
	return func(args []Value) (Value, error) { return NewFloat(fn(args[0].Float())), nil }
}

// bestOf builds GREATEST (dir=1) / LEAST (dir=-1), skipping NULLs.
func bestOf(dir int) func([]Value) (Value, error) {
	return func(args []Value) (Value, error) {
		best := Null
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			if best.IsNull() {
				best = a
				continue
			}
			c, err := Compare(a, best)
			if err != nil {
				return Null, err
			}
			if c*dir > 0 {
				best = a
			}
		}
		return best, nil
	}
}

func substr(args []Value) (Value, error) {
	s := []rune(args[0].String())
	start64, err := Coerce(args[1], KindInt)
	if err != nil {
		return Null, err
	}
	start := int(start64.Int()) - 1 // SQL is 1-based
	if start < 0 {
		start = 0
	}
	end := len(s)
	if len(args) == 3 {
		ln64, err := Coerce(args[2], KindInt)
		if err != nil {
			return Null, err
		}
		end = start + int(ln64.Int())
	}
	start, end = min(start, len(s)), min(end, len(s))
	return NewString(string(s[start:max(start, end)])), nil
}
