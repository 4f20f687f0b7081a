package mapred

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// The two rules of a slot's scratch (taskScratch): a task's outcome is the
// same whatever ran on the scratch before it, and a task hands the scratch
// back holding none of its data.

// foldFields is what FuzzFoldOnSpanMatchesTuples draws column text from:
// keys whose span is their canonical text and keys whose span is not
// (padded, signed, spaced, overflowing integers, "-0", floats), the empty
// string and strings holding a NUL. None holds an escape byte.
var foldFields = []string{
	"ORD", "LAX", "st-7", "7", "12", "-12", "0", "", "007", "+5", " 12", "12 ", "-0", "-", "+",
	"1234567890123456789", "999999999999999999", "99999999999999999999", "-9223372036854775808",
	"1.50", "2.5", "1e3", "x\x00y", "\x00", "\x00x",
}

// FuzzFoldOnSpanMatchesTuples holds fold, which reads a source record's
// key off its spans, to the fold it replaced (oracleFold), which projects
// and encodes the tuple: over every column type, one- and two-column keys,
// key columns a short row lacks, the empty line, non-canonical numbers and
// the fuzzer's own text, the two must leave the same tables — partitions,
// entry order, hashes, keys and partial state — and emit the same records.
// fold's own tuple path, taken once a projection has run, is held to the
// same.
func FuzzFoldOnSpanMatchesTuples(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i+1), uint16(i*89), uint16(40+17*i), uint8(i), foldFields[i*2])
	}
	keyShapes := [][]int{{0}, {1}, {0, 1}, {2, 0}, {3}, {1, 4}}
	f.Fuzz(func(t *testing.T, seed int64, shape, rows uint16, parts uint8, extra string) {
		if strings.IndexAny(extra, "\t\n\\") >= 0 {
			t.Skip("a record holding an escape byte is never read off its spans (Batch.Plain)")
		}
		fields := append(slices.Clone(foldFields), extra)
		state := uint64(seed) | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		lines := make([]string, int(rows)%200+1)
		for i := range lines {
			row := make([]string, []int{3, 3, 3, 3, 1, 2, 4}[next(7)])
			for c := range row {
				row[c] = fields[next(len(fields))]
			}
			lines[i] = strings.Join(row, "\t")
		}
		schema := &tuple.Schema{Fields: []tuple.Field{
			{Name: "a", Type: tuple.FieldType(shape & 3)},
			{Name: "b", Type: tuple.FieldType(shape >> 2 & 3)},
			{Name: "c", Type: tuple.FieldType(shape >> 4 & 3)},
		}}
		in := &JobInput{Schema: schema, KeyCols: keyShapes[int(shape>>6)%len(keyShapes)], Tag: -1}
		spec := &ReduceSpec{Kind: ReduceAggregate, Combine: true, Gens: []pig.GenItem{
			{Name: "group"},
			{Agg: &pig.Aggregate{Func: "count", ColIdx: -1}},
			{Agg: &pig.Aggregate{Func: "max", ColIdx: 2}},
			{Agg: &pig.Aggregate{Func: "min", ColIdx: 1}},
		}}
		if shape>>9&1 != 0 {
			spec = &ReduceSpec{Kind: ReduceDistinct, Combine: true}
		}
		numParts := int(parts)%4 + 1

		var batch dfs.Batch
		if next := sealedBlock(t, lines).ReadColumns(&batch, 0, len(lines), nil); next != len(lines) {
			t.Fatalf("%d lines in one block: the batch stopped at %d", len(lines), next)
		}
		onSpan, onTuple, oracle := newCombiner(spec, in, numParts, nil), newCombiner(spec, in, numParts, nil), newCombiner(spec, in, numParts, nil)
		source, projected := opChain{src: &batch, schema: schema, fromSrc: true}, opChain{}
		var encSpan, encTuple, encOracle []byte
		for batch.Next() {
			rec := make(tuple.Tuple, batch.Width())
			for c := range rec {
				rec[c] = schema.ColType(c).Coerce(batch.Value(c))
			}
			encSpan = onSpan.fold(rec, &source, encSpan)
			encTuple = onTuple.fold(rec, &projected, encTuple)
			encOracle = oracleFold(oracle, rec, encOracle)
		}
		render := func(c *combiner) string {
			var b strings.Builder
			for pi, p := range c.parts {
				for i, e := range p.entries {
					fmt.Fprintf(&b, "part %d entry %d: hash %x key %q\n", pi, i, e.hash, e.keyStr)
				}
			}
			parts, total := c.emit()
			return b.String() + renderOutcome(&mapOutcome{partitions: parts, localBytes: total})
		}
		want := render(oracle)
		if got := render(onSpan); got != want {
			t.Errorf("key %v over %v: fold on the spans left\n%s\nthe tuple-keyed fold\n%s", in.KeyCols, schema, got, want)
		}
		if got := render(onTuple); got != want {
			t.Errorf("key %v over %v: fold on the tuples left\n%s\nthe tuple-keyed fold\n%s", in.KeyCols, schema, got, want)
		}
	})
}

// scratchLines is input for the scratch tests: mostly what columnsLoad's
// schema expects, with ragged, empty, escaped and non-canonical rows mixed
// in, so that every way a record can reach the chain is taken.
func scratchLines(n, keys int) []string {
	lines := make([]string, n)
	for i := range lines {
		switch i % 23 {
		case 5:
			lines[i] = "" // the empty line
		case 11:
			lines[i] = fmt.Sprintf("2001\t1.5\tK%d", i%keys) // short
		case 17:
			lines[i] = fmt.Sprintf("007\t2.5\ta\\tb\tD%d\t+5", i%7) // escaped: its block range is held as lines
		default:
			lines[i] = fmt.Sprintf("%d\t2.5\tK%d\tD%d\t%d", 2000+i%3, i%keys, i%7, i%9-2)
		}
	}
	return lines
}

// runOnScratch runs one map task of script over lines on sc — over small
// blocks and the unsealed tail they leave — and, for a shuffle job, one
// reduce task per partition after it, and renders everything they
// produced: outcome, output lines and digest reports.
func runOnScratch(t *testing.T, script string, points []string, tweak func(*JobSpec), lines []string, corrupt corruptFn, sc *taskScratch) string {
	t.Helper()
	p := plan(t, script)
	jobs, err := Compile(p, CompileOptions{Points: digestPoints(t, p, points...), NumReduces: 3})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	if tweak != nil {
		tweak(job)
	}
	fs := dfs.NewWith(dfs.Options{BlockSize: 1 << 10})
	fs.Append("in", lines...)
	var b strings.Builder
	df := func(point int) *digest.Writer {
		return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "t"}, 1, 50, func(r digest.Report) {
			fmt.Fprintf(&b, "%v final=%v records=%d %x\n", r.Key, r.Final, r.Records, r.Sum)
		})
	}
	// Output lines are staged in the scratch, and what publish keeps of
	// them is a copy: an array of their own, with no more room than a copy
	// takes. What it seals is the lines too.
	publish := func(who string, out *taskOutput) {
		staged := slices.Clone(out.outLines)
		out.publish(sc, fs, true)
		kept := out.outLines
		if !slices.Equal(kept, staged) || out.sealed.Bytes() != linesBytes(staged) {
			t.Fatalf("%s: published %d lines of %d bytes, staged %d", who, len(kept), out.sealed.Bytes(), len(staged))
		}
		if len(kept) == 0 {
			return
		}
		if cap(sc.outLines) < len(kept) || &kept[0] == &sc.outLines[:1][0] {
			t.Fatalf("%s: %d output lines, and the scratch has room for %d, or its array is theirs", who, len(kept), cap(sc.outLines))
		}
		if cap(kept) > len(kept)+len(kept)/4+8 {
			t.Fatalf("%s: %d output lines in an array of %d", who, len(kept), cap(kept))
		}
	}
	out := runMapTask(job, 0, openReader(t, fs), 3, len(lines)-2, df, corrupt, taskObs{}, sc)
	publish("map", &out.taskOutput)
	b.WriteString(renderOutcome(out))
	if job.Reduce != nil {
		for part := range out.partitions {
			// The same run twice: a merge of two runs, not a copy of one.
			red := runReduceTask(job, [][]interRec{out.partitions[part], out.partitions[part]}, df, taskObs{}, sc)
			publish("reduce", &red.taskOutput)
			fmt.Fprintf(&b, "reduce %d: in=%d out=%d digested=%d %q\n", part, red.recordsIn, red.recordsOut, red.digested, red.outLines)
		}
	}
	return b.String()
}

// scratchShapes are the tasks the scratch tests run: every script shape
// of columnScripts, honest and corrupting, and a join.
func scratchShapes() []func(t *testing.T, lines []string, sc *taskScratch) string {
	var shapes []func(*testing.T, []string, *taskScratch) string
	for _, cs := range columnScripts {
		for _, corrupt := range []corruptFn{nil, cluster.Corrupt} {
			shapes = append(shapes, func(t *testing.T, lines []string, sc *taskScratch) string {
				return runOnScratch(t, columnsLoad+cs.src, cs.points, cs.tweak, lines, corrupt, sc)
			})
		}
	}
	return append(shapes, func(t *testing.T, lines []string, sc *taskScratch) string {
		join := columnsLoad + `
o = LOAD 'in/o' AS (year:int, f:float, origin, dest:chararray, delay:int);
j = JOIN fl BY origin, o BY origin;
STORE j INTO 'out/j';`
		return runOnScratch(t, join, []string{"j"}, nil, lines, nil, sc)
	})
}

// TestWarmScratchMatchesCold: a task's outcome does not depend on what
// its scratch served before. Every shape runs on a new scratch, on one
// warmed by a task with more distinct keys and wider rows, and on one that
// every other shape — distinct, map-only, the uncombined shuffle, joins,
// corrupting tasks — has run on, before it and after it, and must render
// byte for byte the same.
func TestWarmScratchMatchesCold(t *testing.T) {
	lines := scratchLines(400, 12)
	wide := make([]string, 3000)
	for i := range wide {
		wide[i] = fmt.Sprintf("%d\t2.5\tK%d\tD%d\t%d\tx\ty\tz\tw", 2000+i%3, i, i, i)
	}
	shapes := scratchShapes()
	cold := make([]string, len(shapes))
	for i, shape := range shapes {
		cold[i] = shape(t, lines, new(taskScratch))
	}
	for i, shape := range shapes {
		grown := new(taskScratch)
		shape(t, wide, grown)
		if got := shape(t, lines, grown); got != cold[i] {
			t.Errorf("shape %d on a scratch grown by a larger task of its own kind:\n%s\non a new one:\n%s", i, got, cold[i])
		}
	}
	shared := new(taskScratch)
	for pass := 0; pass < 2; pass++ {
		for i, shape := range shapes {
			if got := shape(t, lines, shared); got != cold[i] {
				t.Errorf("pass %d: shape %d on the scratch every shape shares:\n%s\non a new one:\n%s", pass, i, got, cold[i])
			}
		}
	}
}

// heldData lists what under v still refers to a task's data: a non-empty
// string, a non-zero tuple.Value, anything behind a pointer — looking at
// every slice through its capacity, not its length.
func heldData(v reflect.Value, path string, found *[]string) {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			*found = append(*found, fmt.Sprintf("%s = %q", path, v.String()))
		}
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		if !v.IsNil() {
			*found = append(*found, path+" is set")
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(tuple.Value{}) {
			if !v.IsZero() {
				*found = append(*found, fmt.Sprintf("%s = %v", path, v))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			heldData(v.Field(i), path+"."+v.Type().Field(i).Name, found)
		}
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Uint8, reflect.Int, reflect.Int32, reflect.Bool:
			return // bytes and offsets: capacity
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			heldData(full.Index(i), fmt.Sprintf("%s[%d]", path, i), found)
		}
	}
}

// TestScratchHoldsNoData: a scratch carries capacity, never content.
// After each task of every shape returns, nothing in the scratch it ran on
// refers to the split's text, a tuple or a map outcome: every string and
// tuple slot, through every capacity, is zero.
func TestScratchHoldsNoData(t *testing.T) {
	lines := scratchLines(400, 12)
	sc := new(taskScratch)
	for i, shape := range scratchShapes() {
		shape(t, lines, sc)
		var found []string
		heldData(reflect.ValueOf(sc).Elem(), "scratch", &found)
		if len(found) > 0 {
			t.Fatalf("after shape %d the scratch still holds %d values, the first: %s", i, len(found), found[0])
		}
	}
	if cap(sc.row) == 0 || cap(sc.tables) == 0 || cap(sc.live) == 0 || cap(sc.left) == 0 || cap(sc.outLines) == 0 {
		t.Error("the shapes did not grow the scratch they were to leave empty")
	}
}

// TestWarmCombineTaskAllocs: on a warm scratch, what a combining task over
// a sealed block allocates grows neither with its records nor with its
// distinct keys, beyond what emit keeps for the outcome — the slab arrays
// and arena chunks its keys and partials are cut from, a few dozen for two
// thousand keys where the tables alone were a doubling series a partition.
func TestWarmCombineTaskAllocs(t *testing.T) {
	job := compile(t, followerSrc, CompileOptions{NumReduces: 4})[0]
	measure := func(n, keys int) float64 {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", i%keys, 100+(i*7919+13)%900)
		}
		r, sc := sealedBlock(t, lines), new(taskScratch)
		return testing.AllocsPerRun(10, func() { // its first, uncounted run warms sc
			if out := runMapTask(job, 0, r, 0, n, nil, nil, taskObs{}, sc); out.shuffleRecs != int64(keys) {
				t.Fatalf("%d shuffle records, want %d", out.shuffleRecs, keys)
			}
		})
	}
	base := measure(1000, 16)
	if got := measure(8000, 16); got != base {
		t.Errorf("8000 records of 16 keys = %v allocs, 1000 records %v: want none per record", got, base)
	}
	if got := measure(8000, 2000); got > base+40 {
		t.Errorf("2000 keys = %v allocs, 16 keys %v: want only what emit keeps, not a table's growth", got, base)
	}
}
