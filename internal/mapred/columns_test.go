package mapred

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
	"clusterbft/internal/tuple"
)

// tailLines serves lines from a reader over a part file they leave
// unsealed: its one segment is the file's tail, held as lines.
func tailLines(tb testing.TB, lines []string) *dfs.Reader {
	tb.Helper()
	fs := dfs.NewWith(dfs.Options{BlockSize: int(linesBytes(lines)) + 1})
	installPart(fs, "in", lines)
	return openReader(tb, fs)
}

// installPart installs lines at path as a task's commit installs its part
// file: sealed by FS.SealBuffer from one buffer, so that what is short of
// a block stays an unsealed tail, which Append never leaves.
func installPart(fs *dfs.FS, path string, lines []string) {
	var buf []byte
	ends := make([]int32, len(lines))
	for i, l := range lines {
		buf = append(buf, l...)
		ends[i] = int32(len(buf))
	}
	fs.Install(path, fs.SealBuffer(buf, ends))
}

// sealedBlock serves lines from a reader over one sealed block holding
// all of them: the map side reads them as column spans where their
// content allows.
func sealedBlock(tb testing.TB, lines []string) *dfs.Reader {
	tb.Helper()
	fs := dfs.NewWith(dfs.Options{BlockSize: int(linesBytes(lines))})
	fs.Append("in", lines...)
	return openReader(tb, fs)
}

// codedBlock is sealedBlock under Compress: lines of few distinct values
// a column are sealed dictionary-coded.
func codedBlock(tb testing.TB, lines []string) *dfs.Reader {
	tb.Helper()
	fs := dfs.NewWith(dfs.Options{BlockSize: int(linesBytes(lines)), Compress: true})
	fs.Append("in", lines...)
	return openReader(tb, fs)
}

// linesBytes sums serialized record sizes (records + newlines).
func linesBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}

func openReader(tb testing.TB, fs *dfs.FS) *dfs.Reader {
	tb.Helper()
	r, err := fs.OpenReader("in")
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

const columnsLoad = "fl = LOAD 'in/fl' AS (year:int, f:float, origin, dest:chararray, delay:int);\n"

// spansLoad is columnsLoad with a chararray where the float was: no column
// type forces a value to be coerced, so a batch of canonical integers and
// strings is its spans, and a source digest may hash the rows that reach
// it from them, a run at a time (opChain.digestBatch).
const spansLoad = "fl = LOAD 'in/fl' AS (year:int, tag:chararray, origin, dest:chararray, delay:int);\n"

// columnScript is a map-side shape FuzzColumnPathMatchesLines drives:
// what the chain does ahead of the first projection, and what takes its
// tuples.
type columnScript struct {
	name   string
	load   string // the LOAD of fl: columnsLoad when empty
	src    string
	points []string
	tweak  func(*JobSpec)
	long   bool // one row's dest holds more than digest.BufferSize bytes
	// alternate makes column 1 (tag) of row i "even" or "odd" by i, in a
	// row that has it.
	alternate bool
}

// script returns the shape's whole Pig script.
func (s columnScript) script() string {
	if s.load == "" {
		return columnsLoad + s.src
	}
	return s.load + s.src
}

// columnScripts are the shapes, each over a five-column schema above (an
// int, a float or a chararray, an untyped, a chararray and another int
// column).
var columnScripts = []columnScript{
	{name: "combine", src: `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl), SUM(fl.delay), MIN(fl.dest), MAX(fl.f);
STORE c INTO 'out/c';`, points: []string{"c"}},
	{name: "combine-leading-digests", src: `
late = FILTER fl BY delay > 0;
g = GROUP late BY dest;
c = FOREACH g GENERATE group, COUNT(late), MIN(late.origin);
STORE c INTO 'out/c';`, points: []string{"fl", "late", "g"}},
	{name: "uncombined", src: `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl), SUM(fl.delay);
STORE c INTO 'out/c';`, points: []string{"g"}, tweak: func(j *JobSpec) { uncombined(j) }},
	{name: "map-only", src: `
late = FILTER fl BY delay > 0;
STORE late INTO 'out/late';`, points: []string{"late"}},
	{name: "map-only-undigested", src: `
late = FILTER fl BY year != 3;
STORE late INTO 'out/late';`},
	{name: "filter-before-project", src: `
late = FILTER fl BY delay > 0;
p = FOREACH late GENERATE origin, year * 2, f, CONCAT(dest, 'x');
STORE p INTO 'out/p';`, points: []string{"late", "p"}},
	{name: "sample", src: `
s = SAMPLE fl 0.5;
p = FOREACH s GENERATE dest, delay;
STORE p INTO 'out/p';`, points: []string{"p"}},
	{name: "distinct", src: `
p = FOREACH fl GENERATE origin, dest;
d = DISTINCT p;
STORE d INTO 'out/d';`, points: []string{"fl"}},
	{name: "sort-whole-tuple", src: `
o = ORDER fl BY delay DESC, origin;
STORE o INTO 'out/o';`, points: []string{"fl"}},
	// weather_finegrain's first job: a source digest straight into a
	// combining GROUP over an untyped key and int columns.
	{name: "source-digest-combine", load: spansLoad, src: `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl), SUM(fl.delay), MAX(fl.year);
STORE c INTO 'out/c';`, points: []string{"fl"}},
	// A second digest behind a projection: its reports of a record come
	// after the source digest's, which must not hash its rows as runs.
	{name: "source-digest-project-digest", load: spansLoad, src: `
p = FOREACH fl GENERATE origin, delay, tag;
STORE p INTO 'out/p';`, points: []string{"fl", "p"}},
	// A row longer than the digest's buffer: hashed from the spans, it must
	// be taken whole into an empty buffer.
	{name: "source-digest-long-row", load: spansLoad, long: true, src: `
g = GROUP fl BY dest;
c = FOREACH g GENERATE group, COUNT(fl), SUM(fl.year);
STORE c INTO 'out/c';`, points: []string{"fl"}},
	// follower_clean's map chain: a FILTER ahead of two digests fused into
	// one writer, into a combining GROUP. The rows that pass reach the
	// writer as runs between the ones the filter drops.
	{name: "filter-digests-combine", load: spansLoad, src: `
late = FILTER fl BY delay > 0;
g = GROUP late BY origin;
c = FOREACH g GENERATE group, COUNT(late), SUM(late.year);
STORE c INTO 'out/c';`, points: []string{"late", "g"}},
	// A filter that keeps every other row: every run is one row long.
	{name: "filter-alternate-digest", load: spansLoad, alternate: true, src: `
odd = FILTER fl BY tag == 'odd';
g = GROUP odd BY dest;
c = FOREACH g GENERATE group, COUNT(odd), MAX(odd.delay);
STORE c INTO 'out/c';`, points: []string{"odd"}},
	// A filter that keeps nothing: no run, and a writer that reports the
	// empty stream.
	{name: "filter-none-digest", load: spansLoad, src: `
none = FILTER fl BY tag == 'never';
g = GROUP none BY origin;
c = FOREACH g GENERATE group, COUNT(none);
STORE c INTO 'out/c';`, points: []string{"none"}},
	// A filter, the digest, a projection and a shuffle of what it makes.
	{name: "filter-digest-project-shuffle", load: spansLoad, src: `
late = FILTER fl BY delay > 0;
p = FOREACH late GENERATE origin, dest, year;
d = DISTINCT p;
STORE d INTO 'out/d';`, points: []string{"late"}},
}

// columnFields is what the fuzzer draws column text from: canonical and
// non-canonical integers, floats, text, the codec's escapes, a value
// ending in a backslash (which, ahead of a tab, the line decoder glues to
// the next column), a raw newline, and values as long as the two bytes
// the column path looks for.
var columnFields = []string{
	"ORD", "LAX", "7", "-12", "0", "", "007", "+5", " 5", "-0", "-", "1234567890123456789",
	"999999999999999999", "99999999999999999999", "-9223372036854775808", "1.50", "1e3", "2.5", "NaN",
	"x\\ty", "a\\\\b", "\\n", "odd\\", "odd\\\\\\", "raw\nline", "0x1F", "ten-bytes!", strings.Repeat("w", 92),
}

// intKinds are the kinds of column FuzzColumnPathMatchesLines makes of
// the schema's int and untyped columns (0, 2 and 4): its values drawn from
// vals, and one row's from odd. The first leaves them to the fuzzer's other
// draws.
var intKinds = []struct {
	name      string
	vals, odd []string
}{
	{name: "any"},
	{name: "canonical", vals: []string{"0", "7", "-12", "2008", "39", "999999999999999999", "-999999999999999999"}},
	{name: "canonical but one", vals: []string{"0", "7", "-12", "2008", "39"}, odd: []string{"007", "+5", "-0", "1234567890123456789"}},
	{name: "not int", vals: []string{"ORD", "LAX", "", " 5", "-", "1.50", "NaN"}},
}

// renderOutcome writes out everything of a map outcome, value kinds
// included, and the output lines its task staged.
func renderOutcome(out *mapOutcome, lines []string) string {
	var b strings.Builder
	tup := func(t tuple.Tuple) {
		fmt.Fprintf(&b, "%d[", len(t))
		for _, v := range t {
			fmt.Fprintf(&b, "%v:%q,", v.Kind(), v.Str())
		}
		b.WriteString("]")
	}
	fmt.Fprintf(&b, "inBytes=%d in=%d out=%d shuffle=%d combined=%d digested=%d local=%d keyVals=%d\n",
		out.inBytes, out.recordsIn, out.recordsOut, out.shuffleRecs, out.combinedIn, out.digested, out.localBytes, out.keyVals)
	for p, part := range out.partitions {
		fmt.Fprintf(&b, "partition %d\n", p)
		for i := range part.recs {
			r := &part.recs[i]
			fmt.Fprintf(&b, "  %q tag=%d enc=%d t=", part.key(r), r.tag, r.encLen)
			tup(part.tuple(r))
			b.WriteByte('\n')
		}
	}
	for _, l := range lines {
		fmt.Fprintf(&b, "line %q\n", l)
	}
	return b.String()
}

// lineOracle is a map task over lines[lo:hi] with no batch: every line is
// decoded whole by tuple.DecodeLine and handed to the chain as a tuple,
// which the chain encodes again wherever it needs the record's bytes
// (fromSrc false).
func lineOracle(job *JobSpec, lines []string, lo, hi int, df digestFactory, corrupt corruptFn, sc *taskScratch) *mapOutcome {
	m := newMapRun(job, 0, hi-lo, df, corrupt, taskObs{}, sc)
	for _, line := range lines[lo:hi] {
		m.out.inBytes += int64(len(line)) + 1
		m.record(new(tuple.Decoder).DecodeLine(line, m.in.Schema))
	}
	out := m.finish()
	m.chain.close()
	return out
}

// FuzzColumnPathMatchesLines holds the map task's one read shape to a line
// oracle (lineOracle): the same records, served from sealed blocks and
// from held lines, must each leave a map task with the outcome the oracle
// leaves — partitions, output lines, every counter, the input bytes
// charged — and the identical sequence of digest reports. Over the script
// shapes above, ragged rows, the empty line, escaped and glued fields, raw
// newlines, non-canonical numbers, compressed and raw blocks, one block or
// many, the last short, a part file's blocks and its unsealed tail, task
// ranges that start and stop inside a block, honest and corrupting tasks. The two int columns and the untyped
// one may each be of one kind throughout (intKinds), so that a batch knows
// its values' form (dfs.Batch.Form) and the task reads them by it. Rows
// may all be schema-wide, so that a source digest over spansLoad, behind
// filters or none, hashes from the spans each run of rows that reach it
// (opChain.digestBatch), one row perhaps longer than the digest's buffer.
func FuzzColumnPathMatchesLines(f *testing.F) {
	for i := range columnScripts {
		f.Add(int64(i+1), uint8(i), uint16(60+41*i), uint8(i%4), uint8([]int{0, 1, 100}[i%3]), uint8(i), uint16(7*i), uint16(300))
	}
	// Each kind of int column, in a raw and in a coded store.
	for kind := 1; kind < len(intKinds); kind++ {
		for compress := range 2 {
			f.Add(int64(kind), uint8(kind), uint16(250), uint8(2), uint8(100), uint8(kind<<4|compress), uint16(0), uint16(250))
		}
	}
	// The source digests hashed from the spans a run at a time: canonical
	// int columns in schema-wide rows, raw and coded, in one block or many,
	// at every chunking, over a range that starts and ends inside a block.
	for i, s := range columnScripts {
		if s.load != spansLoad {
			continue
		}
		for _, chunk := range []uint8{0, 1, 100} {
			for flags := range uint8(2) {
				flags |= 64 | 1<<4 // schema-wide rows, canonical ints
				f.Add(int64(i)+int64(chunk), uint8(i), uint16(300), uint8(2), chunk, flags, uint16(0), uint16(300))
				f.Add(int64(i)*int64(chunk), uint8(i), uint16(300), uint8(3), chunk, flags|4, uint16(17), uint16(290))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, script uint8, rows uint16, reduces, chunk, flags uint8, lo, hi uint16) {
		sc := columnScripts[int(script)%len(columnScripts)]
		compress, faulty, oneBlock, dirty, even := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0, flags&64 != 0
		kind := intKinds[int(flags>>4)%len(intKinds)]
		state := uint64(seed) | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		lines := make([]string, int(rows)%400+1)
		odd := next(len(lines)) // the row a column of kind "canonical but one" holds its other value in
		for i := range lines {
			cols := []int{5, 5, 5, 5, 5, 1, 3, 7}[next(8)] // mostly schema-width, some short, some wide
			if even || i == odd && sc.long {
				cols = 5
			}
			row := make([]string, cols)
			for c := range row {
				switch {
				case c == 3 && i == odd && sc.long:
					row[c] = strings.Repeat("long", digest.BufferSize/3)
				case kind.vals != nil && c%5 != 1 && c%5 != 3:
					row[c] = kind.vals[next(len(kind.vals))]
					if i == odd && kind.odd != nil {
						row[c] = kind.odd[next(len(kind.odd))]
					}
				case !dirty && next(8) > 0 || dirty && next(2) > 0:
					// Mostly what the schema expects: small ints, a few keys.
					row[c] = []string{fmt.Sprint(next(9) - 2), "2.5", "ORD", "LAX", fmt.Sprint(next(40))}[c%5]
				case dirty:
					row[c] = columnFields[next(len(columnFields))]
				default:
					row[c] = columnFields[next(19)] // nothing the column path refuses
				}
			}
			if sc.alternate && cols > 1 {
				row[1] = []string{"even", "odd"}[i%2]
			}
			lines[i] = strings.Join(row, "\t")
		}
		a, b := int(lo)%(len(lines)+1), int(hi)%(len(lines)+1)
		if a > b {
			a, b = b, a
		}

		p := plan(t, sc.script())
		jobs, err := Compile(p, CompileOptions{Points: digestPoints(t, p, sc.points...), NumReduces: int(reduces)%4 + 1})
		if err != nil {
			t.Fatal(err)
		}
		job := jobs[0]
		if sc.tweak != nil {
			sc.tweak(job)
		}
		var corrupt corruptFn
		if faulty {
			corrupt = cluster.Corrupt
		}
		blockSize := 1 << 9
		if oneBlock {
			blockSize = int(linesBytes(lines))
		}
		sealed := dfs.NewWith(dfs.Options{BlockSize: blockSize, Compress: compress})
		sealed.Append("in", lines...)
		part := dfs.NewWith(dfs.Options{BlockSize: blockSize, Compress: compress})
		installPart(part, "in", lines)
		run := func(task func(df digestFactory, sc *taskScratch) *mapOutcome) string {
			var reports strings.Builder
			sc := new(taskScratch)
			out := task(func(point int) *digest.Writer {
				return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 1, int(chunk), func(r digest.Report) {
					fmt.Fprintf(&reports, "%v final=%v records=%d %x\n", r.Key, r.Final, r.Records, r.Sum)
				})
			}, sc)
			return renderOutcome(out, staged(sc)) + reports.String()
		}
		want := run(func(df digestFactory, sc *taskScratch) *mapOutcome {
			return lineOracle(job, lines, a, b, df, corrupt, sc)
		})
		for _, side := range []struct {
			name string
			src  *dfs.Reader
		}{{"sealed blocks", openReader(t, sealed)}, {"a part's blocks and tail", openReader(t, part)}, {"held lines", tailLines(t, lines)}} {
			got := run(func(df digestFactory, sc *taskScratch) *mapOutcome {
				return runMapTask(job, 0, side.src, a, b, df, corrupt, taskObs{}, sc)
			})
			if got != want {
				t.Errorf("%s over [%d,%d) of %d rows (compress=%v faulty=%v oneBlock=%v ints=%s):\n--- %s ---\n%s--- line oracle ---\n%s",
					sc.name, a, b, len(lines), compress, faulty, oneBlock, kind.name, side.name, got, want)
			}
		}
	})
}

// TestCombineOverSealedBlocksAllocs: a combining map task over sealed
// blocks allocates nothing per record, and per further range only a block
// range's backing string (plus a regrown array where a later block is the
// larger): the short block the others leave costs no more.
func TestCombineOverSealedBlocksAllocs(t *testing.T) {
	job := compile(t, followerSrc, CompileOptions{NumReduces: 4})[0]
	edgeLines := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", i%16, 100+(i*7919+13)%900)
		}
		return lines
	}
	allocs := func(r *dfs.Reader, hi int) float64 {
		return testing.AllocsPerRun(10, func() {
			if out := runMapTask(job, 0, r, 0, hi, nil, nil, taskObs{}, new(taskScratch)); out.shuffleRecs != 16 {
				t.Fatalf("%d shuffle records", out.shuffleRecs)
			}
		})
	}
	small, large := edgeLines(1000), edgeLines(8000)
	one := allocs(sealedBlock(t, small), len(small))
	if got := allocs(sealedBlock(t, large), len(large)); got != one {
		t.Errorf("8000 records in one block = %v allocs, 1000 records %v: want none per record", got, one)
	}
	fs := dfs.NewWith(dfs.Options{BlockSize: int(linesBytes(large)) / 9})
	fs.Append("in", large...)
	r := openReader(t, fs)
	var b dfs.Batch
	ranges := 0
	for at := 0; at < r.NumRecords(); ranges++ {
		at = r.ReadColumns(&b, at, r.NumRecords(), nil)
	}
	if ranges < 9 { // a ninth of the bytes a block, the last of them short
		t.Fatalf("%d ranges, want at least 9", ranges)
	}
	if got, want := allocs(r, r.NumRecords()), one+2*float64(ranges-1); got > want {
		t.Errorf("%d block ranges = %v allocs, one range %v: want <= %v", ranges, got, one, want)
	}
}

// TestFusedDigestsMatchSeparateWriters: a map chain with two digests in a
// row — verification points on a filter and on the group it feeds — emits
// through one fused writer exactly the reports, in exactly the order, that
// a writer per digest did, for d in {0, 1, 100} and for a stream the
// filter empties, and still counts every record once per point.
func TestFusedDigestsMatchSeparateWriters(t *testing.T) {
	sc := columnScripts[1]
	p := plan(t, sc.script())
	job, err := Compile(p, CompileOptions{Points: digestPoints(t, p, "late", "g"), NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	ops := job[0].Inputs[0].Ops
	if len(ops) != 3 || ops[1].Kind != PhysDigest || ops[2].Kind != PhysDigest {
		t.Fatalf("map chain = %v, want filter, digest, digest", ops)
	}
	for _, chunk := range []int{0, 1, 100} {
		for _, delay := range []int{5, -5} { // -5: nothing passes the filter
			var rows []tuple.Tuple
			for i := 0; i < 250; i++ {
				rows = append(rows, tuple.Tuple{tuple.Int(2000), tuple.Float(2.5), tuple.Str("ORD"), tuple.Str(fmt.Sprint("A", i%7)), tuple.Int(int64(delay))})
			}
			factory := func(sink *[]digest.Report) digestFactory {
				return func(point int) *digest.Writer {
					return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 0, chunk, func(r digest.Report) { *sink = append(*sink, r) })
				}
			}
			var got, want []digest.Report
			fused, fresh := newOpChain(ops, factory(&got), new(taskScratch)), newFreshChain(ops, factory(&want))
			for _, r := range rows {
				fused.apply(r)
				fresh.apply(r)
			}
			fused.close()
			for _, w := range fresh.writers {
				if w != nil {
					w.Close()
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("d=%d delay=%d: fused chain reported\n%v\nseparate writers\n%v", chunk, delay, got, want)
			}
			if fused.digests != fresh.digests || len(got) == 0 {
				t.Errorf("d=%d delay=%d: %d digested records in %d reports, separate writers %d", chunk, delay, fused.digests, len(got), fresh.digests)
			}
		}
	}
}

// TestFusedDigestsCountPerPoint: through the engine, two fused points
// still show as two in everything that counts digested records — the
// metric, the obs counter and the virtual CPU charged for them.
func TestFusedDigestsCountPerPoint(t *testing.T) {
	sc := columnScripts[1]
	lines := make([]string, 500)
	for i := range lines {
		lines[i] = fmt.Sprintf("2000\t2.5\tORD\tA%d\t%d", i%7, 1+i%9)
	}
	runWith := func(points ...string) (*testRun, *obs.Registry) {
		p := plan(t, sc.script())
		reg := obs.NewRegistry()
		opts := CompileOptions{Points: digestPoints(t, p, points...), NumReduces: 2}
		return run(t, sc.script(), map[string][]string{"in/fl": lines}, opts, func(e *Engine) {
			e.InstrumentMetrics(reg)
			e.DigestChunk = 100
		}), reg
	}
	none, _ := runWith()
	both, reg := runWith("late", "g")
	if got := both.eng.Metrics.DigestRecords; got != 2*500 {
		t.Errorf("Metrics.DigestRecords = %d, want %d", got, 2*500)
	}
	if got := reg.Counter("digest.records").Value(); got != 2*500 {
		t.Errorf("digest.records = %d, want %d", got, 2*500)
	}
	charged := both.eng.Metrics.CPUTimeUs - none.eng.Metrics.CPUTimeUs
	if want := both.eng.Cost.DigestRecordUs * 2 * 500; charged != want {
		t.Errorf("digests charged %dus of virtual CPU, want %d", charged, want)
	}
	var late, g int
	for _, r := range both.reports {
		switch r.Key.Point {
		case digestPoints(t, both.plan, "late")[0]:
			late++
		case digestPoints(t, both.plan, "g")[0]:
			g++
		}
	}
	if late == 0 || late != g {
		t.Errorf("%d reports for the filter's point, %d for the group's", late, g)
	}
}
