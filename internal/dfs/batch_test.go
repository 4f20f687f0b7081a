package dfs

import (
	"errors"
	"fmt"
	"runtime"
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
	t := new(tuple.Decoder).DecodeLine(line, schema)
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

// appendsLines fails t unless b, just read whole from lines, serves
// through AppendLines, from each of its rows on and into buffers of every
// room, exactly those lines with a newline after each, as many a call as
// the room takes but always one, whose room it may grow: where Rows serves
// the batch at all, which every uniform range of a block with no escape
// byte is.
func appendsLines(t *testing.T, who string, b *Batch, lines []string) {
	t.Helper()
	n := b.Rows()
	if n == 0 {
		return
	}
	for from := 0; from <= n; from++ {
		for _, room := range []int{0, 1, 5, 9, 16, 64, 4096} {
			var got []byte
			for r := from; r < n; {
				buf, took := b.AppendLines(make([]byte, 0, room), r, n-r)
				if took < 1 || len(buf) > room && len(lines[r]) < room { // a first line longer than the room grows it
					t.Fatalf("%s: AppendLines from %d into room %d took %d rows in %d bytes", who, r, room, took, len(buf))
				}
				got, r = append(got, buf...), r+took
			}
			if want := strings.Join(lines[from:], "\n") + "\n"; from < n && string(got) != want || from == n && got != nil {
				t.Fatalf("%s: AppendLines from %d into room %d = %q, want %q", who, from, room, got, want)
			}
		}
	}
}

// TestBatchMatchesLines: every range of a block, under every mask, reads
// to exactly the values tuple.DecodeLine reads in its lines — whatever the
// block's shape (blockShapes), compressed and raw — plain where a line
// holds no escape byte, with the line bytes ReadRange's lines add up to,
// which a pruned read takes from the directory; and a range Rows serves
// appends as those lines (appendsLines).
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
						if err := b.decode(data, lo, hi, 0, need); err != nil {
							t.Fatalf("%s: %v", who, err)
						}
						if need == nil {
							appendsLines(t, who, &b, lines[lo:hi])
						}
						readsAs(t, who, &b, lines[lo:hi], need)
					}
				}
			}
		}
	}
	lines := blockShapes()["ragged"]
	if err := b.decode(EncodeBlock(lines, false), -4, len(lines)+7, 0, nil); err != nil {
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
				if err := b.decode(data, lo, hi, 0, need); err != nil {
					t.Fatalf("%s: %v", who, err)
				}
				readsAs(t, who, &b, lines[lo:hi], need)
			}
		}
	}
}

// TestReadColumnsSegments walks a spilled, compressed part file with an
// unsealed tail, and the same lines appended, which end in a short block,
// in strides that straddle block boundaries: every call stops at its
// segment's end, and every range — sealed, escaped, the short block or the
// tail — comes back as a batch, the ranges together every record once, in
// order.
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
	installPart(fs, "t/part", lines)
	fs.Append("t/appended", lines...)
	part, appended := fs.files["t/part"], fs.files["t/appended"]
	if fs.SpilledBlocks() == 0 || part.tail.len() == 0 || appended.tail.len() != 0 ||
		appended.blocks[len(appended.blocks)-1].records != part.tail.len() {
		t.Fatal("want spilled blocks, a part with an unsealed tail and an appended file ending in a block of its lines")
	}
	for _, path := range []string{"t/part", "t/appended"} {
		r, err := fs.OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for _, stride := range []int{1, 7, 64, 1000} {
			for at := 0; at < r.NumRecords(); {
				end := at + stride
				next := r.ReadColumns(&b, at, end, nil)
				if next <= at || next > end {
					t.Fatalf("%s stride %d: ReadColumns(%d,%d) stopped at %d", path, stride, at, end, next)
				}
				readsAs(t, fmt.Sprintf("%s stride %d: [%d,%d)", path, stride, at, next), &b, lines[at:next], nil)
				if b.Next() {
					t.Fatalf("%s stride %d: a consumed batch steps again", path, stride)
				}
				at = next
			}
		}
		if next := r.ReadColumns(&b, 305, 400, nil); next != 400 || b.Next() {
			t.Fatalf("%s past the end: next=%d", path, next)
		}
		if next := r.ReadColumns(&b, 20, 10, nil); next != 10 || b.Next() {
			t.Fatalf("%s empty range: next=%d", path, next)
		}
	}
}

// TestBatchReadAllocs: a batch read allocates no more objects than the
// line decode of the same range, and from its second use on a Batch a read
// of a raw or a dictionary-coded block allocates nothing: its text is the
// block's payload and its offsets are the Batch's own. Held lines cost
// nothing.
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
			if err := b.decode(data, 100, 900, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
		var b Batch
		reused := minAllocs(func() {
			if err := b.decode(data, 100, 900, 0, []bool{true, false, true}); err != nil {
				t.Fatal(err)
			}
		})
		if fresh > asLines {
			t.Errorf("compress=%v: a first batch read = %v allocs, the line decode %v", compress, fresh, asLines)
		}
		flags := byte(0)
		if compress {
			flags = blockFlagDict
		}
		if data[1] != flags || reused != 0 {
			t.Errorf("flags %#x: a repeated batch read = %v allocs, want 0 (flags %#x)", data[1], reused, flags)
		}
	}
	var b Batch
	held := testing.AllocsPerRun(20, func() {
		b.reset()
		b.holdLines(lineSet[string]{lines: lines})
		for b.Next() {
			_ = b.Value(b.Width() - 1)
		}
	})
	if held != 0 {
		t.Errorf("held lines = %v allocs, want 0", held)
	}
}

// TestBatchValuesOutliveTheirBlock: a value a batch read serves is cut
// out of the block's own bytes (blockText), so whatever happens to the
// block after the read must leave it as read. Values kept from a resident
// raw block, a dictionary-coded one, a spilled one and a deflated one
// still equal the lines read first once more files are sealed and
// installed, the blocks spill, the source files are deleted, other
// deflated blocks go through the pooled inflater and the collector runs.
func TestBatchValuesOutliveTheirBlock(t *testing.T) {
	dir := t.TempDir()
	plain := NewWith(Options{BlockSize: 512, MemBudget: 2048, SpillDir: dir})
	packed := NewWith(Options{BlockSize: 512, MemBudget: 8192, SpillDir: dir, Compress: true})
	defer plain.Close()
	defer packed.Close()
	gen := func(n int, line func(i int) string) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = line(i)
		}
		return lines
	}
	// Distinct values that repeat their bytes: flate shrinks them, a
	// dictionary does not.
	deflatable := func(tag string) []string {
		return gen(120, func(i int) string {
			return fmt.Sprintf("%s-%05d\t%s%d\t%d", tag, i*37, strings.Repeat(tag, 4), i, i*i)
		})
	}
	sources := []struct {
		fs    *FS
		path  string
		flags byte // of the first block, which is resident at the read
		lines []string
	}{
		{plain, "in/spilled", 0, gen(200, func(i int) string { return fmt.Sprintf("s%04d\t%d\tspilled-%d", i, i*7, i%13) })},
		{plain, "in/raw", 0, gen(60, func(i int) string { return fmt.Sprintf("r%04d\t%d\traw-%d", i, i*3, i%11) })},
		{packed, "in/coded", blockFlagDict, gen(200, func(i int) string { return fmt.Sprintf("st-%02d\t%d\tclear-%d", i%20, 20+i%7, i%3) })},
		{packed, "in/deflated", blockFlagFlate, deflatable("dfl")},
	}
	for _, src := range sources {
		src.fs.Append(src.path, src.lines...)
	}

	type kept struct {
		who       string
		got, want []string
	}
	var keep []kept
	var first []*block
	var b Batch
	for _, src := range sources {
		blk := src.fs.files[src.path].blocks[0]
		first = append(first, blk)
		if spilled := src.path == "in/spilled"; (blk.data == nil) != spilled || !spilled && blk.data[1] != src.flags {
			t.Fatalf("%s: first block spilled=%v, want spilled=%v, else flags %#x", src.path, blk.data == nil, spilled, src.flags)
		}
		lines, err := readLines(src.fs, src.path)
		if err != nil || !slices.Equal(lines, src.lines) {
			t.Fatalf("%s: readLines = %v", src.path, err)
		}
		r, err := src.fs.OpenReader(src.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, need := range [][]bool{nil, {false, true, true}} {
			for at := 0; at < r.NumRecords(); {
				next := r.ReadColumns(&b, at, r.NumRecords(), need)
				recs, _ := batchRecords(&b, need)
				for i, vals := range recs {
					who := fmt.Sprintf("%s need %v record %d", src.path, need, at+i)
					keep = append(keep, kept{who, vals, decoded(lines[at+i], need)})
				}
				at = next
			}
		}
	}

	// Everything that may happen to a block after a read.
	for i := range 20 {
		plain.Append(fmt.Sprintf("more/%d", i), gen(100, func(j int) string { return fmt.Sprintf("m%d-%04d\t%d\tmore", i, j, j) })...)
		packed.Append(fmt.Sprintf("more/%d", i), deflatable(fmt.Sprintf("m%d", i))...)
	}
	for i, blk := range first {
		if blk.data != nil {
			t.Fatalf("%s: its first block was not spilled", sources[i].path)
		}
	}
	for _, src := range sources {
		if err := src.fs.Delete(src.path); err != nil {
			t.Fatal(err)
		}
	}
	other := deflatable("xyz")
	packed.Append("other/deflated", other...)
	if f := packed.files["other/deflated"]; f.blocks[0].data[1] != blockFlagFlate {
		t.Fatalf("flags %#x: want a deflated block", f.blocks[0].data[1])
	}
	r, err := packed.OpenReader("other/deflated")
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < r.NumRecords(); {
		next := r.ReadColumns(&b, at, r.NumRecords(), nil)
		readsAs(t, fmt.Sprintf("other/deflated [%d,%d)", at, next), &b, other[at:next], nil)
		at = next
	}
	runtime.GC()

	for _, k := range keep {
		if !slices.Equal(k.got, k.want) {
			t.Fatalf("%s = %q once its block was gone, read as %q", k.who, k.got, k.want)
		}
	}
}

// FuzzBatchValuesOutliveTheirBlock is TestBatchValuesOutliveTheirBlock
// over sequences of what may happen to a block after a read. Each byte of
// ops is one operation on one of two stores, both spilling under a small
// budget, one of them compressing: append lines to a file, raw, coded or
// deflated as their values fall; seal lines and install them; append to a
// filler file, which spills what is resident; delete a file; seal and read
// a file of deflated blocks through the pooled inflater; run the
// collector; or read a file through batches under a mask. Every value a
// batch served is kept beside the line decode of its record, taken first
// from readLines, and must still equal it once the collector has run.
func FuzzBatchValuesOutliveTheirBlock(f *testing.F) {
	// Read, spill, read again, delete, collect; install, read, spill,
	// collect: in the raw store, in the compressing one, and in both.
	f.Add([]byte{0x00, 0x00, 0x06, 0x02, 0x02, 0x02, 0x0e, 0x03, 0x05, 0x11, 0x16, 0x02, 0x02, 0x05}, uint64(1))
	f.Add([]byte{0x80, 0x80, 0x86, 0x8e, 0x84, 0x82, 0x82, 0x82, 0x86, 0x83, 0x85, 0x91, 0x96, 0x84, 0x82, 0x85}, uint64(7))
	f.Add([]byte{0x00, 0x80, 0x06, 0x86, 0x02, 0x82, 0x82, 0x04, 0x05, 0x03, 0x83, 0x21, 0xa1, 0x26, 0xae, 0x02, 0x84, 0x05}, uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		ops = ops[:min(len(ops), 48)]
		dir := t.TempDir()
		stores := [2]*FS{
			NewWith(Options{BlockSize: 512, MemBudget: 2048, SpillDir: dir}),
			NewWith(Options{BlockSize: 512, MemBudget: 4096, SpillDir: dir, Compress: true}),
		}
		defer func() {
			for _, fs := range stores {
				if err := fs.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}()
		state := seed | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		// Lines of distinct values, of few distinct values (which a
		// dictionary codes), and of distinct values that repeat their bytes
		// (which flate shrinks).
		gen := func(kind int, tag string) []string {
			lines := make([]string, 1+next(150))
			for i := range lines {
				switch kind {
				case 0:
					lines[i] = fmt.Sprintf("%s%d\t%d\t%x", tag, next(1<<20), i, next(1<<30))
				case 1:
					lines[i] = fmt.Sprintf("%s-%d\t%d\tk%d", tag, next(20), 20+next(7), next(3))
				default:
					lines[i] = fmt.Sprintf("%s-%05d\t%s%d\t%d", tag, i*37, strings.Repeat(tag, 4), i, i*i)
				}
			}
			return lines
		}
		type kept struct {
			who       string
			got, want []string
		}
		var keep []kept
		check := func(after int) {
			for _, k := range keep {
				if !slices.Equal(k.got, k.want) {
					t.Fatalf("%s = %q after op %d, read as %q", k.who, k.got, after, k.want)
				}
			}
		}
		var b Batch
		for i, op := range ops {
			fs := stores[op>>7]
			path := fmt.Sprintf("in/%d", op>>4&7)
			switch op & 7 {
			case 0:
				fs.Append(path, gen(next(3), "a")...)
			case 1:
				fs.Install(path, fs.Seal(gen(next(3), "s")))
			case 2:
				fs.Append("filler", gen(2, "fill")...)
			case 3:
				if err := fs.Delete(path); err != nil && !errors.As(err, new(*ErrNotFound)) {
					t.Fatal(err)
				}
			case 4:
				lines, path := gen(2, "dfl"), fmt.Sprintf("dfl/%d", i)
				stores[1].Install(path, stores[1].Seal(lines))
				r, err := stores[1].OpenReader(path)
				if err != nil {
					t.Fatal(err)
				}
				for at := 0; at < r.NumRecords(); {
					next := r.ReadColumns(&b, at, r.NumRecords(), nil)
					readsAs(t, fmt.Sprintf("op %d: %s [%d,%d)", i, path, at, next), &b, lines[at:next], nil)
					at = next
				}
			case 5:
				runtime.GC()
				check(i)
			default:
				lines, err := readLines(fs, path)
				if err != nil {
					continue // deleted, or never written
				}
				r, err := fs.OpenReader(path)
				if err != nil {
					t.Fatal(err)
				}
				need := []bool{op&8 != 0, true, op&8 == 0}
				for at := 0; at < r.NumRecords(); {
					next := r.ReadColumns(&b, at, r.NumRecords(), need)
					recs, _ := batchRecords(&b, need)
					for j, vals := range recs {
						who := fmt.Sprintf("op %d: %s need %v record %d", i, path, need, at+j)
						keep = append(keep, kept{who, vals, decoded(lines[at+j], need)})
					}
					at = next
				}
			}
		}
		runtime.GC()
		check(len(ops))
	})
}
