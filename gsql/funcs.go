package gsql

import (
	"fmt"
	"math"
)

// scalarFunc is a builtin scalar function. fn1 (unary) or fn (any other
// arity) applies it to boxed values, as a boxed kernel does on operands of
// no static numeric type. ret declares the statically known result type
// (TNull when it depends on the inputs), which the compiler uses to
// specialize enclosing expressions.
type scalarFunc struct {
	nargs int
	fn    func(args []Value) (Value, error)
	fn1   func(a Value) (Value, error)
	ret   Type

	// The numeric core fn1/fn apply to their promoted arguments, which the
	// column kernels call on typed operands (vexpr.go compileCall): at most
	// one of f1, f1e, f2 is set.
	f1  func(float64) float64          // total unary: exp, floor, ceil
	f1e func(float64) (float64, error) // partial unary: ln, log2, sqrt
	f2  func(x, y float64) float64     // binary: pow
	// i1, set beside f1, marks a unary function whose result type follows
	// its argument's (abs): i1 on an int, f1 on any other numeric.
	i1 func(int64) int64
}

// builtinFuncs are the scalar functions available in expressions. They
// cover everything the paper's queries need — notably exp(), used to feed
// exponential forward-decay weights to sampling UDAFs, as in
// "PRISAMP(srcIP, exp(time % 60))".
var builtinFuncs = map[string]scalarFunc{
	"exp": float1(math.Exp),
	"ln": floatErr1(func(x float64) (float64, error) {
		if x <= 0 {
			return 0, fmt.Errorf("gsql: ln of non-positive value %g", x)
		}
		return math.Log(x), nil
	}),
	"log2": floatErr1(func(x float64) (float64, error) {
		if x <= 0 {
			return 0, fmt.Errorf("gsql: log2 of non-positive value %g", x)
		}
		return math.Log2(x), nil
	}),
	"sqrt": floatErr1(func(x float64) (float64, error) {
		if x < 0 {
			return 0, fmt.Errorf("gsql: sqrt of negative value %g", x)
		}
		return math.Sqrt(x), nil
	}),
	"pow":   float2(math.Pow),
	"abs":   {nargs: 1, fn1: absValue, f1: math.Abs, i1: absInt},
	"floor": float1(math.Floor),
	"ceil":  float1(math.Ceil),
	// float(x) forces float arithmetic where integer semantics would
	// otherwise truncate.
	"float": {nargs: 1, ret: TFloat,
		fn1: func(a Value) (Value, error) { return Float(a.AsFloat()), nil }},
	// int(x) truncates to integer.
	"int": {nargs: 1, ret: TInt,
		fn1: func(a Value) (Value, error) { return Int(a.AsInt()), nil }},
}

// argRet is the result type of an i1 function (abs) on a statically typed
// argument: int on an int, float on any other numeric, else unknown.
func argRet(argType Type) Type {
	switch argType {
	case TInt:
		return TInt
	case TFloat, TBool:
		return TFloat
	}
	return TNull
}

// absInt and absValue are abs on an int and on any value: an int stays an
// int, everything else promotes to float.
func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func absValue(a Value) (Value, error) {
	if a.T == TInt {
		return Int(absInt(a.I)), nil
	}
	return Float(math.Abs(a.AsFloat())), nil
}

func float1(f func(float64) float64) scalarFunc {
	return scalarFunc{nargs: 1, ret: TFloat, f1: f, fn1: func(a Value) (Value, error) {
		return Float(f(a.AsFloat())), nil
	}}
}

func floatErr1(f func(float64) (float64, error)) scalarFunc {
	return scalarFunc{nargs: 1, ret: TFloat, f1e: f, fn1: func(a Value) (Value, error) {
		x, err := f(a.AsFloat())
		if err != nil {
			return Null, err
		}
		return Float(x), nil
	}}
}

func float2(f func(x, y float64) float64) scalarFunc {
	return scalarFunc{nargs: 2, ret: TFloat, f2: f, fn: func(a []Value) (Value, error) {
		return Float(f(a[0].AsFloat(), a[1].AsFloat())), nil
	}}
}
