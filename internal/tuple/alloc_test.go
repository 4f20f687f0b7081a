package tuple

import (
	"strconv"
	"testing"
)

// Allocation regressions in the codec multiply across every record the
// engine touches, so the per-record costs are pinned here with
// testing.AllocsPerRun. The budgets are exact: a fix that adds an
// allocation must consciously raise them.

func TestDecodeLinePlainAllocs(t *testing.T) {
	schema := NewSchema("user", "follower", "note")
	line := "1234\t5678\tplain-text-field"
	got := testing.AllocsPerRun(200, func() {
		_ = DecodeLine(line, schema)
	})
	// Exactly the Tuple backing array: escape-free fields slice the line,
	// and a Decoder's first slab is one tuple wide.
	if got != 1 {
		t.Errorf("DecodeLine (escape-free) allocs/record = %v, want 1", got)
	}
}

// TestDecoderPlainAllocs: over a task's worth of lines the only
// allocations left are the slabs, one per slabValues Values.
func TestDecoderPlainAllocs(t *testing.T) {
	schema := NewSchema("user", "follower", "note")
	line := "1234\t5678\tplain-text-field"
	const records = 10000
	got := testing.AllocsPerRun(10, func() {
		var d Decoder
		for i := 0; i < records; i++ {
			_ = d.DecodeLine(line, schema)
		}
	})
	if got/records > 0.01 {
		t.Errorf("Decoder.DecodeLine (escape-free) = %v allocs per %d records, want <= 0.01 each", got, records)
	}
}

func TestDecoderEscapedAllocs(t *testing.T) {
	schema := NewSchema("user", "note", "more")
	line := "1234\tesc\\taped\\nvalue\tand\\\\more"
	var d Decoder
	const records = 1000
	got := testing.AllocsPerRun(10, func() {
		for i := 0; i < records; i++ {
			_ = d.DecodeLine(line, schema)
		}
	})
	// The shared backing string for the unescaped fields, per record, plus
	// a slab now and then.
	if got < records || got > records+10 {
		t.Errorf("Decoder.DecodeLine (escaped) = %v allocs per %d records, want one each plus slabs", got, records)
	}
}

// TestDecoderTuplesStayValid: tuples are carved from slabs that are never
// reused, so everything a Decoder returned keeps its values and its own
// storage however many lines follow, across slab boundaries.
func TestDecoderTuplesStayValid(t *testing.T) {
	schema := &Schema{Fields: []Field{{"n", TypeInt}, {"s", TypeString}}}
	var d Decoder
	const records = 3 * slabValues
	got := make([]Tuple, records)
	for i := range got {
		got[i] = d.DecodeLine(strconv.Itoa(i)+"\tv"+strconv.Itoa(i), schema)
	}
	for i, tup := range got {
		if len(tup) != 2 || cap(tup) != 2 || tup[0] != Int(int64(i)) || tup[1] != Str("v"+strconv.Itoa(i)) {
			t.Fatalf("tuple %d = %v (cap %d) after %d later decodes", i, tup, cap(tup), records-i-1)
		}
	}
	got[0] = append(got[0], Int(-1)) // must reallocate, not run into tuple 1
	if got[1][0] != Int(1) {
		t.Fatalf("append to tuple 0 overwrote tuple 1: %v", got[1])
	}
}

func TestDecoderMatchesDecodeLine(t *testing.T) {
	schema := NewSchema("a", "b")
	lines := []string{
		"",
		"plain\tfields\there",
		"esc\\taped\t\\n\\\\",
		"\\t\t\\t",
		"trailing\\",
		"lone\\q\tescape",
	}
	var d Decoder
	for _, line := range lines {
		want := DecodeLine(line, schema)
		got := d.DecodeLine(line, schema)
		if len(got) != len(want) {
			t.Fatalf("%q: Decoder gave %d cols, package func %d", line, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q col %d: Decoder %v, package func %v", line, i, got[i], want[i])
			}
		}
	}
}

func TestAppendCanonicalAllocs(t *testing.T) {
	row := Tuple{Int(42), Str("payload-column"), Float(1.5), Null()}
	buf := make([]byte, 0, 128)
	got := testing.AllocsPerRun(200, func() {
		buf = AppendCanonical(buf[:0], row)
	})
	if got != 0 {
		t.Errorf("AppendCanonical (warm buffer) allocs/record = %v, want 0", got)
	}
}

// TestAppendCoercedAllocs: neither the copy nor the coerce-and-encode
// side of AppendCoerced allocates into a buffer with room. (Text that a
// numeric column fails to parse costs strconv's error, as in Coerce.)
func TestAppendCoercedAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	got := testing.AllocsPerRun(200, func() {
		b := buf
		for _, raw := range []string{"42", "-7", "007", "+5", "-0"} {
			for ft := TypeAny; ft <= TypeString; ft++ {
				b = ft.AppendCoerced(b, raw)
			}
		}
		for _, raw := range []string{"ORD", "3.50", ""} {
			b = TypeAny.AppendCoerced(b, raw)
			b = TypeString.AppendCoerced(b, raw)
		}
		b = TypeFloat.AppendCoerced(b, "3.50")
	})
	if got != 0 {
		t.Errorf("AppendCoerced allocs = %v, want 0", got)
	}
}

func TestEncodedLenAllocs(t *testing.T) {
	row := Tuple{Int(-9000), Str("a\tb"), Float(2.25)}
	got := testing.AllocsPerRun(200, func() {
		_ = EncodedLen(row)
	})
	if got != 0 {
		t.Errorf("EncodedLen allocs/record = %v, want 0", got)
	}
}

func TestEncodedLenMatchesEncodeLine(t *testing.T) {
	rows := []Tuple{
		{},
		{Null()},
		{Int(0)},
		{Int(-9223372036854775808), Int(9223372036854775807)},
		{Float(0.1), Float(-2.5e300), Float(3)},
		{Str(""), Str("plain"), Str("tab\tnl\nbs\\")},
		{Int(7), Str("x"), Null(), Float(1.25)},
	}
	for _, r := range rows {
		if got, want := EncodedLen(r), len(EncodeLine(r)); got != want {
			t.Errorf("EncodedLen(%v) = %d, len(EncodeLine) = %d", r, got, want)
		}
	}
}
