// Package tuple defines the data model flowing through ClusterBFT data-flow
// programs: dynamically typed Values, Tuples (rows), Schemas, and a
// canonical, deterministic byte encoding used both for storage and for the
// SHA-256 verification digests (the encoding must be identical across
// replicas for digest comparison to be sound).
package tuple

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// Value kinds. KindNull is the zero value so that a zero Value is a typed
// null, usable without initialization.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar: null, int64, float64 or string.
// Values are immutable and safe to copy.
//
// A Value is never an int and a float at once, so both share one word:
// the int64's bits or the float64's, exactly as given (-0, NaN payloads
// and all). That makes a Value 32 bytes (valueBytes); a field for each
// would make it 40.
type Value struct {
	s    string
	bits uint64
	kind Kind
}

// valueBytes is Value's width: a string header, the shared word and the
// kind, padded to the word.
const valueBytes = 32

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, bits: uint64(i)} }

// Float returns a floating point Value.
func Float(f float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(f)} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Null returns the null Value.
func Null() Value { return Value{} }

// Bool maps a boolean onto the integer Values 1 and 0; the expression
// evaluator treats non-zero as true.
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// i and f read the shared word as the int or the float it holds.
func (v Value) i() int64   { return int64(v.bits) }
func (v Value) f() float64 { return math.Float64frombits(v.bits) }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the value as an int64. Floats truncate toward zero; numeric
// strings parse; anything else yields 0.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.i()
	case KindFloat:
		return int64(v.f())
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0
		}
		return i
	default:
		return 0
	}
}

// Float returns the value as a float64 under the same coercions as Int.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i())
	case KindFloat:
		return v.f()
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// Str returns the value as a string. Null renders as the empty string.
func (v Value) Str() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// pow10 holds 10^i for every i an int64's magnitude needs, and the one
// past it, so that decimalDigits can compare against it.
var pow10 = [20]uint64{
	1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// digitPairs spells 00 to 99, two bytes each: appendInt and appendRecord
// write an int two digits at a time from it.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// decimalDigits is the number of decimal digits of u, 1 for 0. A bit
// length of b puts u's digits at floor(b·log10 2) or one more; 1233/4096
// is log10 2 close enough for every b up to 64. u|1 has u's digits, and
// one for 0.
func decimalDigits(u uint64) int {
	u |= 1
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	return d
}

// intLen is len(strconv.FormatInt(i, 10)), counted, not formatted.
func intLen(i int64) int {
	if i < 0 {
		return 1 + decimalDigits(-uint64(i)) // -uint64 is i's magnitude, MinInt64's too
	}
	return decimalDigits(uint64(i))
}

// appendInt is strconv.AppendInt(dst, i, 10), written straight into dst:
// its length counted first, then its digits from the last, two at a time.
func appendInt(dst []byte, i int64) []byte {
	n := intLen(i)
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	b := dst[at:]
	u := uint64(i)
	if i < 0 {
		b[0] = '-'
		u = -u
	}
	j := n
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		j -= 2
		b[j], b[j+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[j-2], b[j-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[j-1] = byte('0' + u)
	}
	return dst
}

// Truthy reports whether the value is "true" in a boolean context:
// non-zero numbers and non-empty strings.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindInt:
		return v.i() != 0
	case KindFloat:
		return v.f() != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// String implements fmt.Stringer using the canonical textual form.
func (v Value) String() string { return v.Str() }

// numericKinds reports whether both values are numeric (int or float).
func numericKinds(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) &&
		(b.kind == KindInt || b.kind == KindFloat)
}

// Compare orders two values: nulls first, then numerics by value, then
// strings lexicographically; mixed numeric/string compares the string
// forms so that ordering is total and deterministic.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	if numericKinds(a, b) {
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i() < b.i():
				return -1
			case a.i() > b.i():
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.Str(), b.Str())
}

// Equal reports whether a and b compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Add returns a+b with integer arithmetic when both are ints, float
// otherwise. Null operands yield null (SQL-style propagation).
func Add(a, b Value) Value { return arith(a, b, '+') }

// Sub returns a-b under the same promotion rules as Add.
func Sub(a, b Value) Value { return arith(a, b, '-') }

// Mul returns a*b under the same promotion rules as Add.
func Mul(a, b Value) Value { return arith(a, b, '*') }

// Div returns a/b. Integer division when both are ints (the paper's §5.4
// determinism workaround relies on integer arithmetic); division by zero
// yields null.
func Div(a, b Value) Value { return arith(a, b, '/') }

// Mod returns a%b on integers; null on zero divisor or non-integers.
func Mod(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null()
	}
	bi := b.Int()
	if bi == 0 {
		return Null()
	}
	return Int(a.Int() % bi)
}

func arith(a, b Value, op byte) Value {
	if a.IsNull() || b.IsNull() {
		return Null()
	}
	if a.kind == KindInt && b.kind == KindInt {
		switch op {
		case '+':
			return Int(a.i() + b.i())
		case '-':
			return Int(a.i() - b.i())
		case '*':
			return Int(a.i() * b.i())
		case '/':
			if b.i() == 0 {
				return Null()
			}
			return Int(a.i() / b.i())
		}
	}
	af, bf := a.Float(), b.Float()
	switch op {
	case '+':
		return Float(af + bf)
	case '-':
		return Float(af - bf)
	case '*':
		return Float(af * bf)
	case '/':
		if bf == 0 {
			return Null()
		}
		return Float(af / bf)
	}
	return Null()
}

// Truncate drops the fractional part of a float value, returning an int
// value; other kinds pass through. This implements the paper's §5.4
// recommendation of truncating decimals before arithmetic so replica
// outputs stay bitwise comparable.
func Truncate(v Value) Value {
	if v.kind == KindFloat {
		return Int(int64(v.f()))
	}
	return v
}
