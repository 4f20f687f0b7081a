package dfs

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// batchLines reads a decoded batch back as lines: each record's values
// joined by tabs, a column the batch does not carry shown as "·". It
// consumes the batch.
func batchLines(b *Batch, need []bool) []string {
	var out []string
	for b.Next() {
		vals := make([]string, b.Width())
		for c := range vals {
			vals[c] = "·"
			if carries(need, c) {
				vals[c] = b.Value(c)
			}
		}
		out = append(out, strings.Join(vals, "\t"))
	}
	return out
}

// masked is what batchLines makes of a line read under need.
func masked(line string, need []bool) string {
	if line == "" {
		return "" // the empty line has no column to mask
	}
	vals := strings.Split(line, "\t")
	for c := range vals {
		if !carries(need, c) {
			vals[c] = "·"
		}
	}
	return strings.Join(vals, "\t")
}

// TestBatchMatchesLines: every range of a block, under every mask, reads
// as columns to exactly the values its lines split into — whatever the
// block's shape (blockShapes), compressed and raw — with the line bytes
// ReadRange's lines add up to, which a pruned read takes from the
// directory; and it is refused exactly where a line of the range holds an
// escape, in a carried column or not.
func TestBatchMatchesLines(t *testing.T) {
	masks := [][]bool{nil, {}, {true}, {false, true}, {true, false, true, true}, {false, false, false, false, true}}
	var b Batch // one batch for every read: stale state must not show
	for name, lines := range blockShapes() {
		for _, compress := range []bool{false, true} {
			data := EncodeBlock(lines, compress)
			for lo := 0; lo <= len(lines); lo++ {
				for hi := lo; hi <= len(lines); hi++ {
					var bytes int64
					plain := true
					for _, l := range lines[lo:hi] {
						bytes += int64(len(l)) + 1
						plain = plain && !strings.ContainsAny(l, "\\\n")
					}
					for _, need := range masks {
						ok, err := b.decode(data, lo, hi, need)
						if err != nil || ok != plain {
							t.Fatalf("%s compress=%v [%d,%d) need %v: ok=%v err=%v, want ok=%v", name, compress, lo, hi, need, ok, err, plain)
						}
						if !ok {
							continue
						}
						var want []string
						for _, l := range lines[lo:hi] {
							want = append(want, masked(l, need))
						}
						if b.Len() != hi-lo || b.LineBytes() != bytes {
							t.Fatalf("%s compress=%v [%d,%d) need %v: %d records of %d line bytes, want %d of %d",
								name, compress, lo, hi, need, b.Len(), b.LineBytes(), hi-lo, bytes)
						}
						if got := batchLines(&b, need); !slices.Equal(got, want) {
							t.Fatalf("%s compress=%v [%d,%d) need %v = %q, want %q", name, compress, lo, hi, need, got, want)
						}
					}
				}
			}
		}
	}
	lines := blockShapes()["ragged"]
	if ok, err := b.decode(EncodeBlock(lines, false), -4, len(lines)+7, nil); err != nil || !ok || b.Len() != len(lines) {
		t.Fatalf("out-of-range bounds: ok=%v err=%v, %d records", ok, err, b.Len())
	}
}

// TestBatchRefusesEscapes: a backslash or a newline in any value of the
// range, carried or not, sends the range back to the line path; one
// outside the range does not, and neither does a value whose length is
// one of the two bytes.
func TestBatchRefusesEscapes(t *testing.T) {
	ten, ninetyTwo := strings.Repeat("x", '\n'), strings.Repeat("y", '\\')
	lines := []string{
		"plain\t" + ten + "\t1",
		ninetyTwo + "\tb\t2",
		"odd\\\tglued\t3", // a backslash before the tab: the line codec reads two columns here
		"raw\nnewline\tb", // in column 0
		"p\tq\tr\tdeep\\n",
		"tail\tb\t5",
	}
	data := EncodeBlock(lines, false)
	var b Batch
	for lo := 0; lo <= len(lines); lo++ {
		for hi := lo; hi <= len(lines); hi++ {
			want := true
			for _, l := range lines[lo:hi] {
				want = want && !strings.ContainsAny(l, "\\\n")
			}
			for _, need := range [][]bool{nil, {false, true}, {}} {
				ok, err := b.decode(data, lo, hi, need)
				if err != nil || ok != want {
					t.Fatalf("[%d,%d) need %v: ok=%v err=%v, want ok=%v", lo, hi, need, ok, err, want)
				}
				if !ok && (b.Len() != 0 || b.LineBytes() != 0 || b.Next()) {
					t.Fatalf("[%d,%d): refused batch is not empty", lo, hi)
				}
			}
		}
	}
}

// TestReadColumnsSegments walks a spilled, compressed file with an
// unsealed tail in strides that straddle block boundaries: every call
// stops at its block's end, sealed ranges come as columns, the tail and
// an escaped range do not, and columns and ReadRange between them return
// every record once, in order.
func TestReadColumnsSegments(t *testing.T) {
	fs := NewWith(Options{BlockSize: 128, MemBudget: 256, SpillDir: t.TempDir(), Compress: true})
	defer fs.Close()
	var want []string
	for i := 0; i < 305; i++ {
		line := fmt.Sprintf("row\t%04d\t%d", i, i%7)
		if i == 150 {
			line = "esc\\aped\t0150\t3"
		}
		want = append(want, line)
	}
	fs.Append("t/f", want...)
	if fs.SpilledBlocks() == 0 || len(fs.files["t/f"].pending) == 0 {
		t.Fatal("want spilled blocks and an unsealed tail")
	}
	r, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []int{1, 7, 64, 1000} {
		var b Batch
		var got []string
		cols, fell := 0, 0
		for at := 0; at < r.NumRecords(); {
			end := at + stride
			next, ok := r.ReadColumns(&b, at, end, nil)
			if next <= at || next > end {
				t.Fatalf("stride %d: ReadColumns(%d,%d) stopped at %d", stride, at, end, next)
			}
			if ok {
				cols++
				got = append(got, batchLines(&b, nil)...)
			} else {
				fell++
				got = append(got, r.ReadRange(at, next)...)
			}
			at = next
		}
		if !slices.Equal(got, want) {
			t.Fatalf("stride %d: columns and lines together read %d records, not the %d appended in order", stride, len(got), len(want))
		}
		if cols == 0 || fell < 2 {
			t.Fatalf("stride %d: %d column reads, %d fallbacks: want both, the tail and the escaped range", stride, cols, fell)
		}
	}
	var b Batch
	if next, ok := r.ReadColumns(&b, 305, 400, nil); ok || next != 400 {
		t.Fatalf("past the end: next=%d ok=%v", next, ok)
	}
	if next, ok := r.ReadColumns(&b, 20, 10, nil); ok || next != 10 {
		t.Fatalf("empty range: next=%d ok=%v", next, ok)
	}

	// A reader materialized for a ReadHook holds lines only.
	fs.ReadHook = func(_ string, lines []string) []string { return lines }
	hooked, err := fs.OpenReader("t/f")
	if err != nil {
		t.Fatal(err)
	}
	if next, ok := hooked.ReadColumns(&b, 0, 10, nil); ok || next != 10 {
		t.Fatalf("hook-materialized reader: next=%d ok=%v", next, ok)
	}
}

// TestBatchReadAllocs: a batch read allocates no more objects than the
// line decode of the same range, and from its second use on a Batch costs
// the one backing string plus whatever the block's encoding does.
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
			if ok, err := b.decode(data, 100, 900, nil); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
		var b Batch
		reused := minAllocs(func() {
			if ok, err := b.decode(data, 100, 900, []bool{true, false, true}); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
		if fresh > asLines {
			t.Errorf("compress=%v: a first batch read = %v allocs, the line decode %v", compress, fresh, asLines)
		}
		if want := asLines - 3; reused > want { // counts, regions and offsets are the Batch's own
			t.Errorf("compress=%v: a repeated batch read = %v allocs, want <= %v", compress, reused, want)
		}
	}
}
