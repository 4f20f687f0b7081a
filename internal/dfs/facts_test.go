package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/tuple"
)

// factValues are what FuzzBatchFacts draws column text from, by kind:
// canonical integers, integer text that is not canonical, and text that
// does not look like an integer at all (the empty value, signs and spaces
// alone, floats). An escape comes from the fuzzer's own text, which the
// seeds make one of factEscapes now and then: the range that holds one is
// held as lines.
var (
	factValues = [3][]string{
		{"0", "7", "-12", "2008", "999999999999999999", "-999999999999999999"},
		{"007", "+5", "-0", "00", "+0", "1234567890123456789", "-9223372036854775808", "99999999999999999999"},
		{"", "ORD", "-", "+", " 5", "5 ", "1.50", "1e3", "NaN", "0x1F"},
	}
	factEscapes = []string{"x\\ty", "a\\\\b", "odd\\"}
)

// FuzzBatchFacts holds what a batch reports of a column's values (Form)
// to the values it serves: over line sets sealed raw and dictionary-coded,
// ragged, with empty values and lines, escapes and every kind of
// non-canonical integer, and columns of one kind, of one kind but for a
// value, and of any kind, every fact a batch reports holds for every
// value of the column in its range. Under each declared type, coercing
// and encoding a value by the fact gives what FieldType.Coerce and
// AppendCoerced give on the per-value path. And the facts are exact, not
// just sound: a batch held as spans reports for each column it carries
// what blockForm folds over every value the block holds there, so a seal
// that gave up on a column's facts would fail here.
func FuzzBatchFacts(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i+1), uint16(20+37*i), uint8(i%3<<4|i&15), uint16(i%2*3*i), uint16(400), factValues[i%3][i%6])
	}
	for i, esc := range factEscapes {
		f.Add(int64(i+1), uint16(100), uint8(i<<4), uint16(0), uint16(100), esc)
	}
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, flags uint8, lo, hi uint16, extra string) {
		if strings.ContainsAny(extra, "\t\n") {
			t.Skip("a value holds no raw tab or newline")
		}
		state := uint64(seed) | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		// Each column is of one kind (0-2), of one kind but for one row, or
		// of any kind (3), the fuzzer's own text among its values. The one
		// row is the first (whose value heads a dictionary), the last, or
		// any or none.
		const width = 5
		var kinds, odd [width]int
		lines := make([]string, int(rows)%300+1)
		for c := range kinds {
			kinds[c], odd[c] = next(4), -1
			if next(2) == 0 {
				odd[c] = []int{0, len(lines) - 1, next(2 * len(lines))}[int(flags>>4)%3]
			}
		}
		for i := range lines {
			row := make([]string, []int{width, width, width, width, 1, 2, 3}[next(7)])
			if slices.Contains(odd[:], i) {
				row = make([]string, width) // the one row holds its odd values
			}
			for c := range row {
				kind := kinds[c]
				switch {
				case kind == 3:
					kind = next(3)
				case i == odd[c]:
					kind = (kind + 1 + next(2)) % 3 // another kind
				}
				pool := factValues[kind]
				if row[c] = pool[next(len(pool))]; next(128) == 0 {
					row[c] = extra
				}
			}
			lines[i] = strings.Join(row, "\t")
			if next(23) == 0 && !slices.Contains(odd[:], i) {
				lines[i] = "" // the empty line
			}
		}
		a, b := int(lo)%(len(lines)+1), int(hi)%(len(lines)+1)
		if a > b {
			a, b = b, a
		}
		var need []bool
		if flags&1 != 0 {
			need = []bool{true, flags&2 != 0, true, flags&4 != 0, flags&8 != 0}
		}
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(lines, compress)
			var batch Batch
			if err := batch.decode(data, a, b, 0, need); err != nil {
				t.Fatal(err)
			}
			who := fmt.Sprintf("flags %#x, [%d,%d) of %d rows, need %v", data[1], a, b, len(lines), need)
			held := batch.nheld > 0
			for c := range width + 1 {
				form := batch.Form(c)
				if (held || !carries(need, c)) && form != tuple.IntOther {
					t.Fatalf("%s: column %d, held=%v: form %v, want IntOther", who, c, held, form)
				}
				if want := blockForm(lines, c); !held && carries(need, c) && c < batch.Columns() && form != want {
					t.Fatalf("%s: column %d: form %v, the block's values fold to %v", who, c, form, want)
				}
			}
			for row := 0; batch.Next(); row++ {
				for c := range batch.Width() {
					if !carries(need, c) {
						continue
					}
					v, form := batch.Value(c), batch.Form(c)
					if form != tuple.IntOther && tuple.IntFormOf(v) != form {
						t.Fatalf("%s: row %d column %d %q is %v, the batch says every value is %v",
							who, row, c, v, tuple.IntFormOf(v), form)
					}
					if batch.Plain() {
						holdsByFact(t, who, v, form)
					}
				}
			}
		}
	})
}

// blockForm is what a block of lines holds in column c, by
// tuple.IntFormOf of every value there but the empty line's: IntCanon if
// each is a canonical integer (or there is none), IntNone if none looks
// like an integer, and IntOther otherwise.
func blockForm(lines []string, c int) tuple.IntForm {
	canon, none := true, true
	for _, l := range lines {
		vals := strings.Split(l, "\t")
		if l == "" || c >= len(vals) {
			continue
		}
		form := tuple.IntFormOf(vals[c])
		canon = canon && form == tuple.IntCanon
		none = none && form == tuple.IntNone
	}
	switch {
	case canon:
		return tuple.IntCanon
	case none:
		return tuple.IntNone
	}
	return tuple.IntOther
}

// holdsByFact fails t unless v, of a column whose values all have form,
// coerces and encodes by the fact as the per-value path does.
func holdsByFact(t *testing.T, who, v string, form tuple.IntForm) {
	t.Helper()
	for _, ft := range []tuple.FieldType{tuple.TypeAny, tuple.TypeInt, tuple.TypeFloat, tuple.TypeString} {
		var want tuple.Value
		switch {
		case form == tuple.IntCanon && (ft == tuple.TypeAny || ft == tuple.TypeInt):
			want = tuple.Int(tuple.CanonicalInt(v))
		case form == tuple.IntNone && ft == tuple.TypeAny, ft == tuple.TypeString:
			want = tuple.Str(v)
		default:
			continue // no fact to read it by: the per-value path alone
		}
		if got := ft.Coerce(v); got.Kind() != want.Kind() || !tuple.Equal(got, want) {
			t.Fatalf("%s: %v.Coerce(%q) = %v (%v), by the fact %v (%v)", who, ft, v, got, got.Kind(), want, want.Kind())
		}
		if got := string(ft.AppendCoerced(nil, v)); got != v {
			t.Fatalf("%s: %v.AppendCoerced(%q) = %q, by the fact the span itself", who, ft, v, got)
		}
	}
}
