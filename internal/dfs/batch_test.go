package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/tuple"
)

// batchRecords reads a batch back: each record's values, a column the
// batch does not carry shown as "·", and whether the record is plain. It
// consumes the batch.
func batchRecords(b *Batch, need []bool) (recs [][]string, plain []bool) {
	for b.Next() {
		vals := make([]string, b.Width())
		for c := range vals {
			vals[c] = "·"
			if carries(need, c) {
				vals[c] = b.Value(c)
			}
		}
		recs = append(recs, vals)
		plain = append(plain, b.Plain())
	}
	return recs, plain
}

// decoded is what batchRecords makes of line read under need: its values
// as tuple.DecodeLine reads them, as text, those need does not carry
// masked.
func decoded(line string, need []bool) []string {
	schema := &tuple.Schema{Fields: make([]tuple.Field, strings.Count(line, "\t")+1)}
	for i := range schema.Fields {
		schema.Fields[i].Type = tuple.TypeString
	}
	t := tuple.DecodeLine(line, schema)
	vals := make([]string, len(t))
	for c, v := range t {
		vals[c] = "·"
		if carries(need, c) {
			vals[c] = v.Str()
		}
	}
	return vals
}

// isPlain is what Plain says of a record read from line.
func isPlain(line string) bool { return !strings.ContainsAny(line, "\\\n") }

// readsAs fails t unless a batch read of lines under need serves each of
// them as decoded does, plain exactly where it is, with the line bytes the
// lines add up to. It consumes b.
func readsAs(t *testing.T, who string, b *Batch, lines []string, need []bool) {
	t.Helper()
	var bytes int64
	var want [][]string
	var plain []bool
	for _, l := range lines {
		bytes += int64(len(l)) + 1
		want = append(want, decoded(l, need))
		plain = append(plain, isPlain(l))
	}
	if b.LineBytes() != bytes {
		t.Fatalf("%s: %d line bytes, want %d", who, b.LineBytes(), bytes)
	}
	got, gotPlain := batchRecords(b, need)
	if !slices.EqualFunc(got, want, slices.Equal) || !slices.Equal(gotPlain, plain) {
		t.Fatalf("%s = %q plain %v, want %q plain %v", who, got, gotPlain, want, plain)
	}
}

// TestBatchMatchesLines: every range of a block, under every mask, reads
// to exactly the values tuple.DecodeLine reads in its lines — whatever the
// block's shape (blockShapes), compressed and raw — plain where a line
// holds no escape byte, with the line bytes ReadRange's lines add up to,
// which a pruned read takes from the directory.
func TestBatchMatchesLines(t *testing.T) {
	masks := [][]bool{nil, {}, {true}, {false, true}, {true, false, true, true}, {false, false, false, false, true}}
	var b Batch // one batch for every read: stale state must not show
	for name, lines := range blockShapes() {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(lines, compress)
			for lo := 0; lo <= len(lines); lo++ {
				for hi := lo; hi <= len(lines); hi++ {
					for _, need := range masks {
						who := fmt.Sprintf("%s compress=%v [%d,%d) need %v", name, compress, lo, hi, need)
						if err := b.decode(data, lo, hi, need); err != nil {
							t.Fatalf("%s: %v", who, err)
						}
						readsAs(t, who, &b, lines[lo:hi], need)
					}
				}
			}
		}
	}
	lines := blockShapes()["ragged"]
	if err := b.decode(EncodeBlock(lines, false), -4, len(lines)+7, nil); err != nil {
		t.Fatalf("out-of-range bounds: %v", err)
	}
	readsAs(t, "out-of-range bounds", &b, lines, nil)
}

// TestBatchEscapesMatchDecodeLine: a range with a backslash or a newline
// in any value, carried or not, is held as lines and read by the codec's
// rule, so that every record, escaped or plain, is exactly what
// tuple.DecodeLine reads in it: a backslash glued to the tab after it, a
// raw newline, an unknown escape, the empty line and rows of three widths,
// over every range and mask. One outside the range changes nothing, and
// neither does a value whose length is one of the two bytes.
func TestBatchEscapesMatchDecodeLine(t *testing.T) {
	ten, ninetyTwo := strings.Repeat("x", '\n'), strings.Repeat("y", '\\')
	lines := []string{
		"plain\t" + ten + "\t1",
		ninetyTwo + "\tb\t2",
		"odd\\\tglued\t3", // a backslash before the tab: the line codec reads two columns here
		"raw\nnewline\tb", // in column 0
		"",
		"p\tq\tr\tdeep\\n\\x",
	}
	data := EncodeBlock(lines, false)
	var b Batch
	for lo := 0; lo <= len(lines); lo++ {
		for hi := lo; hi <= len(lines); hi++ {
			for _, need := range [][]bool{nil, {false, true}, {}, {true, false, false, true}} {
				who := fmt.Sprintf("[%d,%d) need %v", lo, hi, need)
				if err := b.decode(data, lo, hi, need); err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				readsAs(t, who, &b, lines[lo:hi], need)
			}
		}
	}
}

// TestReadColumnsSegments walks a spilled, compressed file with an
// unsealed tail in strides that straddle block boundaries: every call
// stops at its segment's end, and every range — sealed, escaped or the
// tail — comes back as a batch, the ranges together every record once, in
// order. A reader materialized for a ReadHook is served the same way.
func TestReadColumnsSegments(t *testing.T) {
	fs := NewWith(Options{BlockSize: 128, MemBudget: 256, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var lines []string
	for i := 0; i < 305; i++ {
		line := fmt.Sprintf("row\t%04d\t%d", i, i%7)
		if i == 150 {
			line = "esc\\taped\t0150\t3"
		}
		lines = append(lines, line)
	}
	fs.Append("t/f", lines...)
	if fs.SpilledBlocks() == 0 || len(fs.files["t/f"].pending) == 0 {
		t.Fatal("want spilled blocks and an unsealed tail")
	}
	r, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for _, stride := range []int{1, 7, 64, 1000} {
		for at := 0; at < r.NumRecords(); {
			end := at + stride
			next := r.ReadColumns(&b, at, end, nil)
			if next <= at || next > end {
				t.Fatalf("stride %d: ReadColumns(%d,%d) stopped at %d", stride, at, end, next)
			}
			readsAs(t, fmt.Sprintf("stride %d: [%d,%d)", stride, at, next), &b, lines[at:next], nil)
			if b.Next() {
				t.Fatalf("stride %d: a consumed batch steps again", stride)
			}
			at = next
		}
	}
	if next := r.ReadColumns(&b, 305, 400, nil); next != 400 || b.Next() {
		t.Fatalf("past the end: next=%d", next)
	}
	if next := r.ReadColumns(&b, 20, 10, nil); next != 10 || b.Next() {
		t.Fatalf("empty range: next=%d", next)
	}

	// A reader materialized for a ReadHook holds lines only.
	fs.ReadHook = func(_ string, lines []string) []string { return lines }
	hooked, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	if next := hooked.ReadColumns(&b, 140, 160, nil); next != 160 {
		t.Fatalf("hook-materialized reader: next=%d", next)
	}
	readsAs(t, "hook-materialized reader", &b, lines[140:160], nil)
}

// TestBatchReadAllocs: a batch read allocates no more objects than the
// line decode of the same range, and from its second use on a Batch costs
// the one backing string plus whatever the block's encoding does: for a
// dictionary-coded block, nothing. Held lines cost nothing.
func TestBatchReadAllocs(t *testing.T) {
	lines := make([]string, 1000)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	for _, compress := range []bool{false, true} {
		data := EncodeBlock(lines, compress)
		// The minimum over single runs: see TestBlockDecodeAllocs.
		minAllocs := func(fn func()) float64 {
			got := testing.AllocsPerRun(1, fn)
			for i := 0; i < 50; i++ {
				got = min(got, testing.AllocsPerRun(1, fn))
			}
			return got
		}
		asLines := minAllocs(func() {
			if _, err := decodeBlockRange(nil, data, 100, 900); err != nil {
				t.Fatal(err)
			}
		})
		fresh := minAllocs(func() {
			var b Batch
			if err := b.decode(data, 100, 900, nil); err != nil {
				t.Fatal(err)
			}
		})
		var b Batch
		reused := minAllocs(func() {
			if err := b.decode(data, 100, 900, []bool{true, false, true}); err != nil {
				t.Fatal(err)
			}
		})
		if fresh > asLines {
			t.Errorf("compress=%v: a first batch read = %v allocs, the line decode %v", compress, fresh, asLines)
		}
		if want := asLines - 3; reused > want { // counts, regions and offsets are the Batch's own
			t.Errorf("compress=%v: a repeated batch read = %v allocs, want <= %v", compress, reused, want)
		}
		if compress && (data[1] != blockFlagDict || reused != 1) {
			t.Errorf("flags %#x: a repeated batch read of a coded block = %v allocs, want 1, its text", data[1], reused)
		}
	}
	var b Batch
	held := testing.AllocsPerRun(20, func() {
		b.reset()
		b.holdLines(lines)
		for b.Next() {
			_ = b.Value(b.Width() - 1)
		}
	})
	if held != 0 {
		t.Errorf("held lines = %v allocs, want 0", held)
	}
}
