package tuple

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzCodecRoundTrip drives the codec's fast and slow paths with
// arbitrary field content and checks the invariants the data plane
// depends on:
//
//  1. Decoder.DecodeLine(encode(t)) == t under a string schema (string
//     typing sidesteps the documented int re-inference of TypeAny);
//  2. AppendCanonical emits exactly encode(t) + '\n' (the digest byte
//     stream and the storage encoding cannot diverge);
//  3. EncodedLen matches len(encode(t)) (shuffle byte accounting);
//  4. AppendEncoded into a dirty, reused buffer appends exactly the
//     encoding (scratch-buffer reuse in the map/reduce hot path).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add("a", "b", "c", uint8(3))
	f.Add("tab\there", "line\nbreak", `back\slash`, uint8(3))
	f.Add("", "", "", uint8(2))
	f.Add("-42", "3.5", "0", uint8(3))
	f.Add(`trailing\`, "\t\t", "\\n", uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c string, n uint8) {
		fields := []string{a, b, c}[:n%4]
		in := make(Tuple, len(fields))
		schema := &Schema{Fields: make([]Field, len(fields))}
		for i, s := range fields {
			in[i] = Str(s)
			schema.Fields[i] = Field{Name: "c", Type: TypeString}
		}
		line := encode(in)
		if len(in) == 0 || (len(in) == 1 && fields[0] == "") {
			// The empty tuple and the single-empty-field tuple share the
			// empty-line encoding (documented ambiguity); nothing more to
			// check.
			if line != "" {
				t.Fatalf("encode(%v) = %q, want empty", in, line)
			}
			return
		}
		if strings.Contains(line, "\n") {
			t.Fatalf("encode(%v) contains raw newline: %q", in, line)
		}
		out := new(Decoder).DecodeLine(line, schema)
		if !slices.EqualFunc(in, out, Equal) {
			t.Fatalf("round trip: DecodeLine(%q) = %v, want %v", line, out, in)
		}
		canon := AppendCanonical(nil, in)
		if string(canon) != line+"\n" {
			t.Fatalf("AppendCanonical = %q, encode+\\n = %q", canon, line+"\n")
		}
		if got := EncodedLen(in); got != len(line) {
			t.Fatalf("EncodedLen = %d, len(encode) = %d", got, len(line))
		}
		dirty := append(make([]byte, 0, 64), "dirty-prefix|"...)
		reused := AppendEncoded(dirty, in)
		if string(reused) != "dirty-prefix|"+line {
			t.Fatalf("AppendEncoded into dirty buffer = %q", reused)
		}
	})
}

// FuzzDecodeLineNoPanic feeds raw, possibly malformed lines (stray
// escapes, bare backslashes, embedded separators) through both decode
// paths: decoding must never panic and re-encoding a decoded tuple must
// be stable (encode∘decode is idempotent even for lines the encoder
// would never produce).
func FuzzDecodeLineNoPanic(f *testing.F) {
	f.Add("plain\tline")
	f.Add(`a\qb` + "\t" + `end\`)
	f.Add("\t\t\t")
	f.Add(`\t\n\\`)
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsRune(line, '\n') {
			t.Skip("raw newlines never reach DecodeLine (line-split input)")
		}
		got := new(Decoder).DecodeLine(line, nil)
		re := encode(got)
		again := new(Decoder).DecodeLine(re, nil)
		if !slices.EqualFunc(got, again, Equal) && !(len(got) == 1 && got[0].Str() == "") {
			t.Fatalf("decode not idempotent: %q -> %v -> %q -> %v", line, got, re, again)
		}
	})
}

// FuzzRawCanonical pins the rule that lets a verification digest copy a
// source column's bytes instead of encoding its value: for every field
// type and every raw free of tab, newline and backslash, AppendCoerced
// writes exactly the encoded text of ft.Coerce(raw) — whether it copied
// raw (strings, integers in canonical form) or coerced and encoded it
// (padded, signed, spaced and overflowing integers, "-0", every float).
func FuzzRawCanonical(f *testing.F) {
	for _, raw := range []string{"", "0", "7", "-12", "007", "+5", " 5", "5 ", "-0", "-", "+", "00",
		"999999999999999999", "1000000000000000000", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "99999999999999999999", "1.50", "1e3", "NaN", "-Inf", "0x10", "1_000",
		"ORD", "ünï", "12ab", "\x00x"} {
		for ft := TypeAny; ft <= TypeString; ft++ {
			f.Add(raw, uint8(ft))
		}
	}
	f.Fuzz(func(t *testing.T, raw string, ft uint8) {
		if strings.IndexAny(raw, "\t\n\\") >= 0 {
			t.Skip("a range holding an escape byte never reaches AppendCoerced")
		}
		typ := FieldType(ft % 4)
		want := appendEscapedValue([]byte("row\t"), typ.Coerce(raw))
		if got := typ.AppendCoerced([]byte("row\t"), raw); string(got) != string(want) {
			t.Fatalf("%v.AppendCoerced(%q) = %q, the coerced value encodes to %q", typ, raw, got, want)
		}
	})
}

// FuzzCoerceIntMatchesParseInt holds the integer fast path to what it
// skips: for arbitrary bytes, coercing to an int column — declared, or
// inferred by an untyped one — gives what strings.TrimSpace and
// strconv.ParseInt make of them, zero where they fail.
func FuzzCoerceIntMatchesParseInt(f *testing.F) {
	for _, raw := range []string{"", "0", "7", "-12", "007", "+5", " 5", "5 ", "-0", "-", "00", "\t9\n",
		"999999999999999999", "-999999999999999999", "1000000000000000000", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "1.5", "1e3", "12ab", "１２", "\x00"} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			want = 0
		}
		if got := TypeInt.Coerce(raw); got.Kind() != KindInt || got.Int() != want {
			t.Fatalf("TypeInt.Coerce(%q) = %v %d, strconv.ParseInt gives %d", raw, got.Kind(), got.Int(), want)
		}
		if got := TypeAny.Coerce(raw); got.Kind() == KindInt && got.Int() != want {
			t.Fatalf("TypeAny.Coerce(%q) = %d, strconv.ParseInt gives %d", raw, got.Int(), want)
		}
	})
}

// FuzzAppendIntMatchesStrconv holds the integer encoder, which counts an
// int's digits and writes them in place, to strconv: for any int64,
// AppendEncoded (onto a dirty buffer), EncodedLen and Value.Str give
// strconv.FormatInt's text.
func FuzzAppendIntMatchesStrconv(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(math.MinInt64))
	f.Add(int64(math.MaxInt64))
	for p := int64(1); ; p *= 10 {
		for _, v := range []int64{p - 1, p, p + 1} { // 0, 1, 2, then 9, 10, 11, 99, 100, 101, …
			f.Add(v)
			f.Add(-v)
		}
		if p > math.MaxInt64/10 {
			break
		}
	}
	f.Fuzz(func(t *testing.T, i int64) {
		want := strconv.FormatInt(i, 10)
		v := Int(i)
		if got := AppendEncoded([]byte("dirty"), Tuple{v}); string(got) != "dirty"+want {
			t.Fatalf("AppendEncoded(%d) = %q, strconv gives %q", i, got, want)
		}
		if got := EncodedLen(Tuple{v}); got != len(want) {
			t.Fatalf("EncodedLen(%d) = %d, strconv gives %d", i, got, len(want))
		}
		if got := v.Str(); got != want {
			t.Fatalf("Str(%d) = %q, strconv gives %q", i, got, want)
		}
	})
}

// fields is a Value as it was laid out before the shared word: an int64
// and a float64 side by side. FuzzValueWordMatchesFields holds Value to it.
type fields struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

func (o fields) str() string {
	switch o.kind {
	case KindInt:
		return strconv.FormatInt(o.i, 10)
	case KindFloat:
		return strconv.FormatFloat(o.f, 'g', -1, 64)
	}
	return o.s
}

// The string and null cases do not involve the word: they are Value's own.
func (o fields) int() int64 {
	switch o.kind {
	case KindInt:
		return o.i
	case KindFloat:
		return int64(o.f)
	}
	return Str(o.s).Int()
}

func (o fields) float() float64 {
	switch o.kind {
	case KindInt:
		return float64(o.i)
	case KindFloat:
		return o.f
	}
	return Str(o.s).Float()
}

func (o fields) truthy() bool {
	switch o.kind {
	case KindInt:
		return o.i != 0
	case KindFloat:
		return o.f != 0
	}
	return o.s != ""
}

func (o fields) encoded() string {
	if o.kind == KindString {
		return string(appendEscaped(nil, o.s))
	}
	return o.str()
}

func compareFields(a, b fields) int {
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return cmp.Compare(min(uint8(a.kind), 1), min(uint8(b.kind), 1))
	case a.kind == KindInt && b.kind == KindInt:
		return cmp.Compare(a.i, b.i)
	case a.kind != KindString && b.kind != KindString:
		af, bf := a.float(), b.float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	return strings.Compare(a.str(), b.str())
}

// arithFields is Add ('+') and Div ('/') over the two fields.
func arithFields(a, b fields, op byte) fields {
	if a.kind == KindNull || b.kind == KindNull {
		return fields{}
	}
	if a.kind == KindInt && b.kind == KindInt {
		if op == '+' {
			return fields{kind: KindInt, i: a.i + b.i}
		}
		if b.i == 0 {
			return fields{}
		}
		return fields{kind: KindInt, i: a.i / b.i}
	}
	af, bf := a.float(), b.float()
	if op == '+' {
		return fields{kind: KindFloat, f: af + bf}
	}
	if bf == 0 {
		return fields{}
	}
	return fields{kind: KindFloat, f: af / bf}
}

// sameValue reports whether v holds o: the same kind, and the same bits
// of its number, so -0 differs from 0 and a NaN matches only itself.
func sameValue(v Value, o fields) bool {
	if v.Kind() != o.kind {
		return false
	}
	switch o.kind {
	case KindInt:
		return v.Int() == o.i
	case KindFloat:
		return math.Float64bits(v.Float()) == math.Float64bits(o.f)
	}
	return v.Str() == o.s
}

// FuzzValueWordMatchesFields: an int and a float sharing one word is
// invisible. Over pairs of values of every kind — the extremes of both
// numbers, -0, NaN, infinities and subnormals among them — every reading
// of a Value, its encoding, its order and the arithmetic on it are what a
// layout with an int64 and a float64 field gives.
func FuzzValueWordMatchesFields(f *testing.F) {
	nums := []struct {
		i int64
		f float64
	}{
		{0, math.Copysign(0, -1)}, {-1, math.NaN()}, {math.MinInt64, math.Inf(1)}, {math.MaxInt64, math.Inf(-1)},
		{1, math.SmallestNonzeroFloat64}, {-7, -math.SmallestNonzeroFloat64}, {1 << 53, 0x1p-1030},
		{3, 2.5}, {-3, math.MaxFloat64}, {42, 42},
	}
	for k := range 4 {
		for j, a := range nums {
			b := nums[(j+k+1)%len(nums)]
			f.Add(uint8(k), a.i, a.f, "7", uint8(j), b.i, b.f, "x\ty")
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		build := func(k uint8, i int64, fl float64, s string) (Value, fields) {
			switch o := (fields{kind: Kind(k % 4)}); o.kind {
			case KindInt:
				return Int(i), fields{kind: KindInt, i: i}
			case KindFloat:
				return Float(fl), fields{kind: KindFloat, f: fl}
			case KindString:
				return Str(s), fields{kind: KindString, s: s}
			default:
				return Null(), o
			}
		}
		a, oa := build(ka, ia, fa, sa)
		b, ob := build(kb, ib, fb, sb)
		for _, c := range [][2]any{{a, oa}, {b, ob}} {
			v, o := c[0].(Value), c[1].(fields)
			if v.Str() != o.str() || v.Int() != o.int() || v.Truthy() != o.truthy() ||
				math.Float64bits(v.Float()) != math.Float64bits(o.float()) {
				t.Fatalf("%#v reads as %q %d %v %v, the fields as %q %d %v %v", v,
					v.Str(), v.Int(), v.Float(), v.Truthy(), o.str(), o.int(), o.float(), o.truthy())
			}
		}
		want := oa.encoded() + "\t" + ob.encoded()
		if got := AppendEncoded([]byte("row|"), Tuple{a, b}); string(got) != "row|"+want {
			t.Fatalf("AppendEncoded(%v, %v) = %q, the fields encode to %q", a, b, got, want)
		}
		if got := EncodedLen(Tuple{a, b}); got != len(want) {
			t.Fatalf("EncodedLen(%v, %v) = %d, the fields encode to %d bytes", a, b, got, len(want))
		}
		if got, want := Compare(a, b), compareFields(oa, ob); got != want {
			t.Fatalf("Compare(%v, %v) = %d, the fields compare %d", a, b, got, want)
		}
		if got, want := Add(a, b), arithFields(oa, ob, '+'); !sameValue(got, want) {
			t.Fatalf("Add(%v, %v) = %#v, the fields give %#v", a, b, got, want)
		}
		if got, want := Div(a, b), arithFields(oa, ob, '/'); !sameValue(got, want) {
			t.Fatalf("Div(%v, %v) = %#v, the fields give %#v", a, b, got, want)
		}
	})
}

// FuzzAppendEncodedMatchesValues holds the flat record encoder to the
// layered one it replaced (refEncoded, a call per value): over tuples of
// every kind, AppendEncoded onto a dirty buffer, AppendCanonical,
// EncodedLen and AppendColumns, columns past the width included, write
// and count what encoding value after value does. Each byte of spec makes
// one value: its low two bits the kind, the rest an int's shift right
// (twice bits 3-7) and sign (bit 2), a string's prefix length (bits 3-7,
// of 31) or a float's sign (bit 2); and one column AppendColumns picks.
func FuzzAppendEncodedMatchesValues(f *testing.F) {
	const (
		intAsIs = byte(KindInt)
		negated = byte(KindInt) | 4
		float   = byte(KindFloat)
		str     = byte(KindString) | 31<<3 // the whole string
		null    = byte(KindNull)
	)
	ints := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); p <= 1e6; p *= 10 { // both sides of the four-digit path
		ints = append(ints, p-1, p, p+1)
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 0.1}
	strs := []string{"", "\t", "\n", `\`, "plain", "a\tb\nc\\d", `trailing\`}
	for k, i := range ints {
		fl, s := floats[k%len(floats)], strs[k%len(strs)]
		f.Add([]byte{intAsIs, negated, str, null, float}, i, fl, s)
		f.Add([]byte{str, intAsIs | 1<<3, negated | 2<<3, null, float | 4, byte(KindString)}, i, fl, s)
	}
	f.Fuzz(func(t *testing.T, spec []byte, i int64, fl float64, s string) {
		spec = spec[:min(len(spec), 12)]
		row := make(Tuple, len(spec))
		for k, b := range spec {
			switch Kind(b & 3) {
			case KindInt:
				x := i >> (b >> 3 * 2)
				if b&4 != 0 {
					x = -x
				}
				row[k] = Int(x)
			case KindFloat:
				x := fl
				if b&4 != 0 {
					x = -x
				}
				row[k] = Float(x)
			case KindString:
				row[k] = Str(s[:len(s)*int(b>>3)/31])
			}
		}
		want := refEncoded([]byte("dirty|"), row)
		if got := AppendEncoded([]byte("dirty|"), row); string(got) != string(want) {
			t.Fatalf("AppendEncoded(%#v) = %q, value by value %q", row, got, want)
		}
		if got := AppendCanonical([]byte("dirty|"), row); string(got) != string(want)+"\n" {
			t.Fatalf("AppendCanonical(%#v) = %q, value by value %q", row, got, string(want)+"\n")
		}
		if got, n := EncodedLen(row), refEncodedLen(row); got != n || n != len(want)-len("dirty|") {
			t.Fatalf("EncodedLen(%#v) = %d, value by value %d, encoded %d", row, got, n, len(want)-len("dirty|"))
		}
		cols := make([]int, len(spec))
		wantCols := []byte("dirty|")
		for k, b := range spec {
			cols[k] = int(b>>2) % (len(row) + 2)
			if k > 0 {
				wantCols = append(wantCols, '\t')
			}
			if cols[k] < len(row) {
				wantCols = appendEscapedValue(wantCols, row[cols[k]])
			}
		}
		if got := AppendColumns([]byte("dirty|"), row, cols); string(got) != string(wantCols) {
			t.Fatalf("AppendColumns(%#v, %v) = %q, value by value %q", row, cols, got, wantCols)
		}
	})
}
