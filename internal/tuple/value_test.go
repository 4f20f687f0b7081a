package tuple

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindNull, "null"},
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindString, "string"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestValueConstructorsAndKinds(t *testing.T) {
	if Int(3).Kind() != KindInt {
		t.Error("Int kind mismatch")
	}
	if Float(3.5).Kind() != KindFloat {
		t.Error("Float kind mismatch")
	}
	if Str("x").Kind() != KindString {
		t.Error("Str kind mismatch")
	}
	if Null().Kind() != KindNull {
		t.Error("Null kind mismatch")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be null")
	}
}

func TestBool(t *testing.T) {
	if Bool(true).Int() != 1 || Bool(false).Int() != 0 {
		t.Error("Bool mapping incorrect")
	}
	if !Bool(true).Truthy() || Bool(false).Truthy() {
		t.Error("Bool truthiness incorrect")
	}
}

func TestIntCoercion(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
	}{
		{Int(42), 42},
		{Float(3.9), 3},
		{Float(-3.9), -3},
		{Str("17"), 17},
		{Str(" 17 "), 17},
		{Str("-8"), -8},
		{Str("abc"), 0},
		{Str(""), 0},
		{Null(), 0},
	}
	for _, c := range cases {
		if got := c.v.Int(); got != c.want {
			t.Errorf("(%v).Int() = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFloatCoercion(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
	}{
		{Int(42), 42},
		{Float(3.5), 3.5},
		{Str("2.25"), 2.25},
		{Str("nope"), 0},
		{Null(), 0},
	}
	for _, c := range cases {
		if got := c.v.Float(); got != c.want {
			t.Errorf("(%v).Float() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestStrCoercion(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-5), "-5"},
		{Float(2.5), "2.5"},
		{Str("hello"), "hello"},
		{Null(), ""},
	}
	for _, c := range cases {
		if got := c.v.Str(); got != c.want {
			t.Errorf("(%#v).Str() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{Int(1), Int(-1), Float(0.1), Str("a")}
	falsy := []Value{Int(0), Float(0), Str(""), Null()}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		// Mixed numeric/string compares textual forms.
		{Int(10), Str("10"), 0},
		{Int(2), Str("10"), 1}, // "2" > "10" lexicographically
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveOnStrings(t *testing.T) {
	f := func(a, b, c string) bool {
		x, y, z := Str(a), Str(b), Str(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(3), Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Equal(Str("a"), Str("b")) {
		t.Error("distinct strings should not be equal")
	}
}

func TestArithmeticInts(t *testing.T) {
	cases := []struct {
		got, want Value
	}{
		{Add(Int(2), Int(3)), Int(5)},
		{Sub(Int(2), Int(3)), Int(-1)},
		{Mul(Int(4), Int(3)), Int(12)},
		{Div(Int(7), Int(2)), Int(3)}, // integer division (§5.4)
		{Mod(Int(7), Int(2)), Int(1)},
	}
	for i, c := range cases {
		if !Equal(c.got, c.want) || c.got.Kind() != c.want.Kind() {
			t.Errorf("case %d: got %v (%v), want %v (%v)", i, c.got, c.got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestArithmeticFloatPromotion(t *testing.T) {
	v := Add(Int(1), Float(0.5))
	if v.Kind() != KindFloat || v.Float() != 1.5 {
		t.Errorf("Add(1, 0.5) = %v (%v)", v, v.Kind())
	}
	v = Div(Float(7), Int(2))
	if v.Kind() != KindFloat || v.Float() != 3.5 {
		t.Errorf("Div(7.0, 2) = %v (%v)", v, v.Kind())
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	ops := []func(a, b Value) Value{Add, Sub, Mul, Div, Mod}
	for i, op := range ops {
		if !op(Null(), Int(1)).IsNull() || !op(Int(1), Null()).IsNull() {
			t.Errorf("op %d must propagate null", i)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	if !Div(Int(1), Int(0)).IsNull() {
		t.Error("int division by zero must be null")
	}
	if !Div(Float(1), Float(0)).IsNull() {
		t.Error("float division by zero must be null")
	}
	if !Mod(Int(1), Int(0)).IsNull() {
		t.Error("mod by zero must be null")
	}
}

func TestTruncate(t *testing.T) {
	cases := []struct {
		in, want Value
	}{
		{Float(3.99), Int(3)},
		{Float(-3.99), Int(-3)},
		{Int(5), Int(5)},
		{Str("x"), Str("x")},
		{Null(), Null()},
	}
	for _, c := range cases {
		got := Truncate(c.in)
		if got.Kind() != c.want.Kind() || !Equal(got, c.want) {
			t.Errorf("Truncate(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b int64) bool {
		return Equal(Add(Int(a), Int(b)), Add(Int(b), Int(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatStrRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := Float(x)
		return Str(v.Str()).Float() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueWidth pins the width every slab, row and record of the data
// plane is sized by: a string header, the shared word and the kind.
func TestValueWidth(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != valueBytes || valueBytes != 32 {
		t.Errorf("Value is %d bytes, valueBytes says %d, want 32", got, valueBytes)
	}
	if got := slabValues * unsafe.Sizeof(Value{}); got != 32<<10 {
		t.Errorf("a full slab array is %d bytes, want 32 KiB", got)
	}
}
