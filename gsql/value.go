package gsql

import (
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the engine's value types.
type Type uint8

// The supported value types. Integer and float arithmetic follow C
// semantics (integer division truncates), which the paper's queries rely on
// (time/60, time % 60).
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
)

// String returns the type's name.
func (t Type) String() string {
	switch t {
	case TNull:
		return "null"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TBool:
		return "bool"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a dynamically typed scalar. The zero value is NULL. Values are
// kept flat (no pointers except strings) so tuples stay allocation-light on
// the hot path.
type Value struct {
	T Type
	I int64 // TInt payload; 0/1 for TBool
	F float64
	S string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{T: TFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{T: TString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{T: TBool, I: 1}
	}
	return Value{T: TBool}
}

// Null is the NULL value.
var Null = Value{}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// AsFloat converts numeric values to float64 (NULL becomes 0).
func (v Value) AsFloat() float64 {
	switch v.T {
	case TFloat:
		return v.F
	case TInt, TBool:
		return float64(v.I)
	default:
		return 0
	}
}

// AsInt converts numeric values to int64, truncating floats (NULL becomes 0).
func (v Value) AsInt() int64 {
	switch v.T {
	case TInt, TBool:
		return v.I
	case TFloat:
		return int64(v.F)
	default:
		return 0
	}
}

// Truthy reports whether the value counts as true in a predicate.
func (v Value) Truthy() bool {
	switch v.T {
	case TBool, TInt:
		return v.I != 0
	case TFloat:
		return v.F != 0
	case TString:
		return v.S != ""
	default:
		return false
	}
}

// String renders the value for output.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// appendKey appends a canonical byte encoding of the value to dst, used to
// build group keys.
func (v Value) appendKey(dst []byte) []byte {
	switch v.T {
	case TInt, TBool, TFloat:
		return appendKeyWord(dst, v.T, keyWord(v))
	case TString:
		return appendKeyStr(dst, v.S)
	}
	return append(dst, byte(v.T))
}

// The key encodings of one value: the type tag, then the 8 little-endian
// bytes of its key word for int, bool and float, or the string's bytes and a
// NUL. Every key writer — appendKey, buildKeyAppender, the batch fold's
// appendKeyAt and wordAt, and groupKey's word form — goes through these,
// so their bytes cannot drift apart.

// keyWord is an int, bool or float value's key word: the payload bits.
func keyWord(v Value) uint64 {
	if v.T == TFloat {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

// wordValue inverts keyWord for a value of type t.
func wordValue(t Type, w uint64) Value {
	if t == TFloat {
		return Float(math.Float64frombits(w))
	}
	return Value{T: t, I: int64(w)}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func appendKeyWord(dst []byte, t Type, u uint64) []byte {
	return append(dst, byte(t), byte(u), byte(u>>8), byte(u>>16),
		byte(u>>24), byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendKeyStr(dst []byte, s string) []byte {
	dst = append(dst, byte(TString))
	dst = append(dst, s...)
	return append(dst, 0)
}

// buildKeyAppender returns a closure appending the canonical group-key
// encoding of a group-value tuple to dst, byte-identical to calling
// appendKey per value. When every group expression is statically numeric
// the encoding is a fixed 9 bytes per value, written without per-value
// dynamic dispatch; otherwise it falls back to the generic per-value loop.
func buildKeyAppender(types []Type) func(dst []byte, gv Tuple) []byte {
	for _, t := range types {
		if t != TInt && t != TBool && t != TFloat {
			return func(dst []byte, gv Tuple) []byte {
				for _, v := range gv {
					dst = v.appendKey(dst)
				}
				return dst
			}
		}
	}
	return func(dst []byte, gv Tuple) []byte {
		for _, v := range gv {
			dst = appendKeyWord(dst, v.T, keyWord(v))
		}
		return dst
	}
}

// numericBinop applies an arithmetic operator with C-like promotion: two
// integers yield an integer (truncating division, Go's % semantics), any
// float operand promotes to float.
func numericBinop(op byte, a, b Value) (Value, error) {
	if a.T == TInt && b.T == TInt {
		x, y := a.I, b.I
		switch op {
		case '+':
			return Int(x + y), nil
		case '-':
			return Int(x - y), nil
		case '*':
			return Int(x * y), nil
		case '/':
			if y == 0 {
				return Null, fmt.Errorf("gsql: integer division by zero")
			}
			return Int(x / y), nil
		case '%':
			if y == 0 {
				return Null, fmt.Errorf("gsql: integer modulo by zero")
			}
			return Int(x % y), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return Float(x + y), nil
	case '-':
		return Float(x - y), nil
	case '*':
		return Float(x * y), nil
	case '/':
		return Float(x / y), nil
	case '%':
		return Float(math.Mod(x, y)), nil
	}
	return Null, fmt.Errorf("gsql: unknown operator %q", op)
}

// negValue is unary minus on a value of any type: an int stays an int,
// everything else promotes to float.
func negValue(v Value) Value {
	if v.T == TInt {
		return Int(-v.I)
	}
	return Float(-v.AsFloat())
}

// compare returns -1, 0 or +1 ordering two values; mixed numeric types
// compare as floats, strings compare lexically.
func compare(a, b Value) (int, error) {
	if a.T == TString || b.T == TString {
		if a.T != TString || b.T != TString {
			return 0, fmt.Errorf("gsql: cannot compare %s with %s", a.T, b.T)
		}
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		default:
			return 0, nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch {
	case x < y:
		return -1, nil
	case x > y:
		return 1, nil
	default:
		return 0, nil
	}
}
