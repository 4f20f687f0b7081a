package tuple

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzCodecRoundTrip drives the codec's fast and slow paths with
// arbitrary field content and checks the invariants the data plane
// depends on:
//
//  1. DecodeLine(EncodeLine(t)) == t under a string schema (string
//     typing sidesteps the documented int re-inference of TypeAny);
//  2. AppendCanonical emits exactly EncodeLine + '\n' (the digest byte
//     stream and the storage encoding cannot diverge);
//  3. EncodedLen matches len(EncodeLine(t)) (shuffle byte accounting);
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
		line := EncodeLine(in)
		if len(in) == 0 || (len(in) == 1 && fields[0] == "") {
			// The empty tuple and the single-empty-field tuple share the
			// empty-line encoding (documented ambiguity); nothing more to
			// check.
			if line != "" {
				t.Fatalf("EncodeLine(%v) = %q, want empty", in, line)
			}
			return
		}
		if strings.Contains(line, "\n") {
			t.Fatalf("EncodeLine(%v) contains raw newline: %q", in, line)
		}
		out := DecodeLine(line, schema)
		if !EqualTuples(in, out) {
			t.Fatalf("round trip: DecodeLine(%q) = %v, want %v", line, out, in)
		}
		canon := AppendCanonical(nil, in)
		if string(canon) != line+"\n" {
			t.Fatalf("AppendCanonical = %q, EncodeLine+\\n = %q", canon, line+"\n")
		}
		if got := EncodedLen(in); got != len(line) {
			t.Fatalf("EncodedLen = %d, len(EncodeLine) = %d", got, len(line))
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
		got := DecodeLine(line, nil)
		re := EncodeLine(got)
		again := DecodeLine(re, nil)
		if !EqualTuples(got, again) && !(len(got) == 1 && got[0].Str() == "") {
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
