package mapred

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
	"clusterbft/internal/tuple"
	"clusterbft/internal/workload"
)

// Shuffle-path allocation pins: partitioning and sampling run once per
// shuffled record, so both must stay allocation-free (the inline FNV-1a
// loops replaced hash/fnv's heap-allocated states; the sample hash runs
// over a per-chain scratch buffer).

// TestRecordWidths pins what the data plane moves per record and per
// key: a shuffle record, a combiner entry and an aggregate's running
// state, each paid once per replica.
func TestRecordWidths(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, most uintptr
	}{
		{"interRec", unsafe.Sizeof(interRec{}), 24},
		{"combineEntry", unsafe.Sizeof(combineEntry{}), 32},
		{"aggAcc", unsafe.Sizeof(aggAcc{}), 40},
	} {
		if c.got > c.most {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.got, c.most)
		}
	}
}

// pointerFree reports whether a value of type t holds no pointer the
// collector would follow.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestShuffleRecordsHoldNoPointers walks what the shuffle keeps a record
// and a key of, and what a task's output lines are held in: the collector
// has nothing to trace in any of them. A shuffle record and a combiner
// entry are pointer-free through and through. A run is its arrays and
// nothing else: its records, which hold none, its key text and its value
// arrays. A task's output buffer is arrays of bytes and of line ends.
func TestShuffleRecordsHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[interRec](), reflect.TypeFor[combineEntry]()} {
		if !pointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	arrays := map[string]reflect.Type{
		"recs": reflect.TypeFor[[]interRec](),
		"text": reflect.TypeFor[string](),
		"vals": reflect.TypeFor[[][]tuple.Value](),
	}
	run := reflect.TypeFor[sortedRun]()
	for i := range run.NumField() {
		f := run.Field(i)
		if want, ok := arrays[f.Name]; ok && f.Type == want {
			delete(arrays, f.Name)
			continue
		}
		if !pointerFree(f.Type) {
			t.Errorf("sortedRun.%s (%v) holds a pointer and is none of the run's arrays", f.Name, f.Type)
		}
	}
	if len(arrays) != 0 {
		t.Errorf("sortedRun lacks %v", arrays)
	}
	out := reflect.TypeFor[lineBuf]()
	for i := range out.NumField() {
		if f := out.Field(i); f.Type.Kind() != reflect.Slice || !pointerFree(f.Type.Elem()) {
			t.Errorf("lineBuf.%s (%v) is not an array of pointer-free elements", f.Name, f.Type)
		}
	}
}

func TestPartitionOfAllocs(t *testing.T) {
	key := []byte("1234\tsome-key")
	got := testing.AllocsPerRun(200, func() {
		_ = partitionOf(key, 16)
	})
	if got != 0 {
		t.Errorf("partitionOf allocs/record = %v, want 0", got)
	}
}

func TestSampleKeepHashAllocs(t *testing.T) {
	row := tuple.Tuple{tuple.Int(42), tuple.Str("payload"), tuple.Int(7)}
	scratch := make([]byte, 0, 128)
	got := testing.AllocsPerRun(200, func() {
		scratch = tuple.AppendCanonical(scratch[:0], row)
		_ = sampleKeepHash(scratch, 0.5)
	})
	if got != 0 {
		t.Errorf("sample path allocs/record = %v, want 0", got)
	}
}

// TestMapInnerLoopObsAllocs pins the disabled-observability contract on
// the map-task inner loop: running a split with the zero taskObs (nil
// counters, the default when no registry is attached) allocates exactly
// as much as running it with live counters — the hook itself costs no
// allocations either way, so per-task allocation counts stay governed by
// the data plane alone.
func TestMapInnerLoopObsAllocs(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	lines := make([]string, 512)
	for i := range lines {
		lines[i] = "12\t34"
	}
	src := sealedBlock(t, lines)
	measure := func(o taskObs) float64 {
		return testing.AllocsPerRun(20, func() {
			_ = runMapTask(job, 0, src, 0, len(lines), nil, nil, o, new(taskScratch))
		})
	}
	disabled := measure(taskObs{})
	r := obs.NewRegistry()
	enabled := measure(taskObs{
		mapRecords:     r.Counter("m"),
		shuffleRecords: r.Counter("s"),
		outRecords:     r.Counter("o"),
	})
	if disabled != enabled {
		t.Errorf("map inner-loop allocs: disabled=%v enabled=%v, want equal", disabled, enabled)
	}
}

// TestPartitionOfObsAllocs re-pins partitionOf now that the shuffle path
// runs under optional counters: the hot function itself takes no hook,
// and a surrounding nil counter touch stays free.
func TestPartitionOfObsAllocs(t *testing.T) {
	var c *obs.Counter
	key := []byte("1234\tsome-key")
	got := testing.AllocsPerRun(200, func() {
		c.Inc()
		_ = partitionOf(key, 16)
	})
	if got != 0 {
		t.Errorf("partitionOf+nil-counter allocs/record = %v, want 0", got)
	}
}

// TestCombineFoldAllocs pins the combiner's steady-state cost: once a
// key has its table entry, folding another record with that key is
// allocation-free — the canonical encoding lands in the task's scratch
// buffer, and the probe compares stored keys against raw bytes without
// materializing a string or projecting a key tuple.
func TestCombineFoldAllocs(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	if !job.Reduce.Combine {
		t.Fatal("follower job not marked combinable")
	}
	rows := make([]tuple.Tuple, 16)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i * 7))}
	}
	comb := newCombiner(job.Reduce, &job.Inputs[0], job.NumReduces, combineTable{}, nil)
	var vals valArrays
	text := make([]byte, 0, 64)
	var chain opChain        // its tuples are not source rows: the tuple path
	for _, r := range rows { // first sight: entries allocate here, not below
		text = comb.fold(r, &chain, text, &vals)
	}
	keys := len(text)
	got := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			text = comb.fold(r, &chain, text, &vals)
		}
	})
	if len(text) != keys {
		t.Errorf("table hits grew the key text from %d to %d bytes, want it left as it was", keys, len(text))
	}
	if got != 0 {
		t.Errorf("combiner fold allocs/batch = %v, want 0 on table hits", got)
	}
}

// TestWarmEmitAllocs pins what emit costs on a warm slot: the runs and
// the one record array they share, two allocations whatever the number of
// keys and partitions. Each key's partition is staged in the slot's
// arrays, and each partition's count in its index, not in arrays of the
// task's own.
func TestWarmEmitAllocs(t *testing.T) {
	job := compile(t, followerSrc, CompileOptions{NumReduces: 4})[0]
	rows := make([]tuple.Tuple, 2000)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i % 500)), tuple.Int(int64(i * 7))}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := new(taskScratch)
	comb := newCombiner(job.Reduce, &job.Inputs[0], job.NumReduces, combineTable{}, nil)
	var chain opChain // its tuples are not source rows: the tuple path
	var before, after runtime.MemStats
	emit := func() uint64 {
		var vals valArrays
		var text []byte
		for _, r := range rows {
			text = comb.fold(r, &chain, text, &vals)
		}
		runtime.ReadMemStats(&before)
		parts, _ := comb.emit(text, &vals, sc)
		runtime.ReadMemStats(&after)
		if n := len(parts[0].recs) + len(parts[1].recs) + len(parts[2].recs) + len(parts[3].recs); n != 500 {
			t.Fatalf("emitted %d records, want 500", n)
		}
		return after.Mallocs - before.Mallocs
	}
	emit() // warms sc
	for i := 0; i < 3; i++ {
		if got := emit(); got != 2 {
			t.Errorf("emit on a warm slot allocates %d times, want 2: the runs and their record array", got)
		}
	}
}

// TestResolveDetachedAllocs pins the disabled-observability contract on
// the per-attempt accounting: with no registry and no jobs board — how
// the timed runs execute — settling an attempt's CPU, committed, lost or
// hung, is the ledger update and nil-receiver no-ops.
func TestResolveDetachedAllocs(t *testing.T) {
	eng := NewEngine(dfs.NewWith(dfs.Options{}), cluster.New(2, 1), nil, DefaultCostModel())
	if eng.Board != nil || eng.Registry() != nil {
		t.Fatal("a fresh engine attaches a store; the pin needs none")
	}
	js := &JobState{Spec: &JobSpec{ID: "x/r0/j0", SID: "run1-c0-a0", Replica: 1}}
	rt := &runningTask{task: js.newTask(MapTask, 0, 3), node: "node-000", dur: 800_004}
	if got := testing.AllocsPerRun(200, func() {
		eng.resolve(rt, attemptCommitted)
		eng.resolve(rt, attemptLost)
		eng.resolve(rt, attemptHung)
	}); got != 0 {
		t.Errorf("resolve with nothing attached allocates %v times per three attempts, want 0", got)
	}
	if b := eng.Ledger.Buckets(); b.CommittedUs == 0 || b.ReplicaWasteUs != 2*b.CommittedUs {
		t.Errorf("ledger after one committed and two lost attempts per round: %+v", b)
	}
}

// TestWarmTaskOutputAllocs pins a task's output path on a warm slot: the
// lines go into the slot's buffer, which grows no more, and publishing them
// allocates only what the commit installs — the sealed blocks and the
// tail's lines copied out, exactly what dfs.FS.SealBuffer of the same lines
// costs. A reduce task of a join and a map-only task each cost the same
// with four times the output.
func TestWarmTaskOutputAllocs(t *testing.T) {
	join := compile(t, reuseScripts["join"], CompileOptions{NumReduces: 1})[0]
	mapOnly := compile(t, `
a = LOAD 'in/edges' AS (user:int, follower:int);
f = FILTER a BY follower != 0;
p = FOREACH f GENERATE user, user * follower AS prod;
STORE p INTO 'out/prod';`, CompileOptions{})[0]
	// A join of keys keys with perKey records a side: keys x perKey x perKey
	// output lines. A map-only task over keys x perKey x perKey held lines.
	reduceTask := func(keys, perKey int) (func(sc *taskScratch), int) {
		left, right := make([]string, keys*perKey), make([]string, keys*perKey)
		for i := range left {
			left[i] = fmt.Sprintf("%d\t%d", 1000+i, i%keys)
			right[i] = fmt.Sprintf("%d\t%d", i%keys, 2000+i)
		}
		runs := []sortedRun{
			runMapTask(join, 0, tailLines(t, left), 0, len(left), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
			runMapTask(join, 1, tailLines(t, right), 0, len(right), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
		}
		return func(sc *taskScratch) { runReduceTask(join, runs, nil, taskObs{}, sc) }, keys * perKey * perKey
	}
	mapTask := func(keys, perKey int) (func(sc *taskScratch), int) {
		lines := make([]string, keys*perKey*perKey)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", i%97, 1+i%89)
		}
		r := tailLines(t, lines)
		return func(sc *taskScratch) { runMapTask(mapOnly, 0, r, 0, len(lines), nil, nil, taskObs{}, sc) }, len(lines)
	}
	for _, c := range []struct {
		name string
		task func(keys, perKey int) (func(sc *taskScratch), int)
	}{{"reduce", reduceTask}, {"map-only", mapTask}} {
		// run returns what a warm task of keys x perKey x perKey lines
		// allocates, publishing to fs, and what sealing its lines there
		// costs.
		run := func(keys, perKey int, fs *dfs.FS) (allocs, seal float64) {
			task, lines := c.task(keys, perKey)
			sc := new(taskScratch)
			var buf []byte
			var ends []int32
			allocs = testing.AllocsPerRun(10, func() { // its first, uncounted run warms sc
				task(sc)
				if sc.out.lines() != lines {
					t.Fatalf("%s: %d output lines, want %d", c.name, sc.out.lines(), lines)
				}
				buf, ends = append(buf[:0], sc.out.buf...), append(ends[:0], sc.out.ends...)
				new(taskOutput).publish(sc, fs)
			})
			if fs != nil {
				seal = testing.AllocsPerRun(10, func() { fs.SealBuffer(buf, ends) })
			}
			return allocs, seal
		}
		base, _ := run(10, 10, nil)
		if got, _ := run(10, 20, nil); got != base {
			t.Errorf("%s: 4000 output lines = %v allocs, 1000 lines %v: the output path allocates a line", c.name, got, base)
		}
		fs := dfs.NewWith(dfs.Options{BlockSize: 4 << 10})
		for _, perKey := range []int{10, 20} {
			got, seal := run(10, perKey, fs)
			if seal < 3 || got != base+seal {
				t.Errorf("%s: publishing %d lines = %v allocs, %v without sealing, and sealing them %v", c.name, 10*perKey*perKey, got, base, seal)
			}
		}
	}
}

// TestWarmDigestAllocs pins the hashing of a map task on a warm slot: a
// filter between two digest points (the airline ETL chain, over a
// dictionary-coded store) feeds two writers, which gather their records
// in the slot's digest buffers. The task allocates, over what it
// allocates with digests off, what making and closing its two writers
// does and nothing else, whatever the number of records and chunks.
func TestWarmDigestAllocs(t *testing.T) {
	const src = `
fl = LOAD 'in/fl' AS (year:int, month:int, origin, dest, delay:int);
late = FILTER fl BY delay > 0;
STORE late INTO 'out/late';`
	job := compile(t, src, CompileOptions{Points: digestPoints(t, plan(t, src), "fl", "late")})[0]
	if n := len(job.Inputs[0].Ops); n != 3 {
		t.Fatalf("%d ops, want a filter between two digests", n)
	}
	df := func(point int) *digest.Writer {
		return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 1, 100, func(digest.Report) {})
	}
	writers := testing.AllocsPerRun(10, func() {
		df(1).Close()
		df(2).Close()
	})
	for _, n := range []int{1000, 4000} {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("2008\t%d\t%s\t%s\t%d", 1+i%12, []string{"ATL", "ORD", "SFO"}[i%3], []string{"JFK", "LAX"}[i%2], i%9-3)
		}
		fs := dfs.NewWith(dfs.Options{BlockSize: 16 << 10, Compress: true})
		fs.Append("in", lines...)
		r := openReader(t, fs)
		sc := new(taskScratch)
		task := func(df digestFactory) float64 {
			return testing.AllocsPerRun(10, func() { // its first, uncounted run warms sc
				runMapTask(job, 0, r, 0, n, df, nil, taskObs{}, sc)
				sc.out.reset()
			})
		}
		with, without := task(df), task(nil)
		if with != without+writers {
			t.Errorf("%d records: %v allocs with two digests, %v without, and their writers %v: hashing allocates", n, with, without, writers)
		}
	}
}

// TestWarmSourceDigestAllocs pins the source digest hashed from the spans
// on a warm slot, at d = 100, over raw and over dictionary-coded blocks:
// weather_finegrain's first job, a digest of the source straight into a
// combining GROUP, where a batch is one run; and follower_clean's, a
// FILTER ahead of two fused digests, where the rows that pass make runs
// between the ones it drops. The writer takes each run's records as lines
// straight from the block (dfs.Batch.AppendLines) into the slot's digest
// buffer: the task allocates, over what it allocates with digests off,
// what making and closing its writer does and nothing else, whatever the
// number of records and chunks.
func TestWarmSourceDigestAllocs(t *testing.T) {
	for _, c := range []struct {
		name, src string
		points    []string
		line      func(i int) string
		passes    func(i int) bool
	}{
		{name: "source digest", src: `
w = LOAD 'in/w' AS (station, date:int, temp:int);
g = GROUP w BY station;
a = FOREACH g GENERATE group, AVG(w.temp);
STORE a INTO 'out/a';`, points: []string{"w"},
			line:   func(i int) string { return fmt.Sprintf("st%05d\t%d\t%d", i%40, 20080101+i%28, 20+i%50) },
			passes: func(int) bool { return true }},
		{name: "filter ahead", src: workload.FollowerScript, points: []string{"nonempty", "grouped"},
			line:   func(i int) string { return fmt.Sprintf("%d\t%d", 1+i%40, i%7%3) },
			passes: func(i int) bool { return i%7%3 != 0 }},
	} {
		job := compile(t, c.src, CompileOptions{Points: digestPoints(t, plan(t, c.src), c.points...)})[0]
		df := func(point int) *digest.Writer {
			return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 1, 100, func(digest.Report) {})
		}
		if m := newMapRun(job, 0, 0, df, nil, taskObs{}, new(taskScratch)); m.chain.runW == nil || m.chain.runW.Points() != len(c.points) {
			t.Fatalf("%s: map chain %v hashes no source digest of %d points from the spans", c.name, job.Inputs[0].Ops, len(c.points))
		}
		writer := testing.AllocsPerRun(10, func() {
			w := df(1)
			for p := range len(c.points) - 1 {
				w.Also(2 + p)
			}
			w.Close()
		})
		for _, compress := range []bool{false, true} {
			for _, n := range []int{1000, 4000} {
				lines := make([]string, n)
				passing := 0
				for i := range lines {
					lines[i] = c.line(i)
					if c.passes(i) {
						passing++
					}
				}
				fs := dfs.NewWith(dfs.Options{BlockSize: 16 << 10, Compress: compress})
				fs.Append("in", lines...)
				r := openReader(t, fs)
				sc := new(taskScratch)
				task := func(df digestFactory) float64 {
					return testing.AllocsPerRun(10, func() { // its first, uncounted run warms sc
						if out := runMapTask(job, 0, r, 0, n, df, nil, taskObs{}, sc); df != nil && out.digested != int64(passing*len(c.points)) {
							t.Fatalf("%s: %d records digested of %d, at %d points", c.name, out.digested, passing, len(c.points))
						}
					})
				}
				with, without := task(df), task(nil)
				if with != without+writer {
					t.Errorf("%s, compress=%v, %d records: %v allocs with a source digest, %v without, and its writer %v: hashing allocates",
						c.name, compress, n, with, without, writer)
				}
			}
		}
	}
}

// digestedFromSpans runs the map task of job over every record of lines,
// sealed at the default block size, and reports the record count of each
// batch the read gives, and of each whose rows reaching the chain's source
// digest its writer takes from the spans (opChain.digestBatch). It then
// runs the task whole on a fresh slot and returns its outcome, and whether
// the chain encoded any record's canonical bytes: none of a chain that
// digests from the spans and hands on no record as a line.
func digestedFromSpans(t *testing.T, job *JobSpec, lines []string, df digestFactory) (rows, spans []int, out *mapOutcome, encoded bool) {
	t.Helper()
	fs := dfs.NewWith(dfs.Options{})
	fs.Append("in", lines...)
	r := openReader(t, fs)
	sc := new(taskScratch)
	m := newMapRun(job, 0, len(lines), df, nil, taskObs{}, sc)
	if m.chain.runW == nil {
		t.Fatalf("map chain %v hashes no source digest from the spans", job.Inputs[0].Ops)
	}
	_, carry := neededCols(job, 0)
	for lo := 0; lo < len(lines); {
		lo = r.ReadColumns(&sc.batch, lo, len(lines), carry)
		rows = append(rows, sc.batch.Rows())
		m.chain.planBatch()
		m.chain.digestBatch(true)
		if m.chain.runs {
			spans = append(spans, sc.batch.Rows())
		}
		for sc.batch.Next() {
		}
	}
	m.chain.close()
	fresh := new(taskScratch)
	out = runMapTask(job, 0, r, 0, len(lines), df, nil, taskObs{}, fresh)
	return rows, spans, out, cap(fresh.canon) > 0
}

// TestLoadedInputIsReadAsColumns: an input Append loads is sealed to its
// last line, the last block short, so the weather workload's 15,000 rows
// at the default block size read through ReadColumns as batches held as
// spans whose Rows add up to all of them, and a map task whose chain leads
// with a source digest hashes every one of them from the spans, each batch
// one run (digestBatch), none a record at a time.
func TestLoadedInputIsReadAsColumns(t *testing.T) {
	lines := workload.Weather(15_000, 400, 1)
	job := compile(t, workload.WeatherScript, CompileOptions{Points: digestPoints(t, plan(t, workload.WeatherScript), "w")})[0]
	df := func(point int) *digest.Writer {
		return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 1, 100, func(digest.Report) {})
	}
	rows, spans, out, encoded := digestedFromSpans(t, job, lines, df)
	if len(rows) < 2 || !slices.Equal(spans, rows) || sum(rows) != len(lines) {
		t.Errorf("%d rows read as batches %v, of which digested from the spans %v; want every one of %d, over more than one block",
			sum(rows), rows, spans, len(lines))
	}
	if out.digested != int64(len(lines)) || encoded {
		t.Errorf("%d records digested of %d; encoded a record for its digest: %v", out.digested, len(lines), encoded)
	}
}

// TestFilteredInputIsDigestedFromSpans is TestLoadedInputIsReadAsColumns
// for the follower workload, whose map chain is a FILTER ahead of two
// digests fused into one writer, into a combining GROUP: every batch of
// workload.Twitter's rows is digested from the spans, the rows that pass
// the filter a run at a time, and none a record at a time, so that no
// record is encoded for its digest; and every passing record is counted
// once per point of the writer.
func TestFilteredInputIsDigestedFromSpans(t *testing.T) {
	lines := workload.Twitter(60_000, 3_000, 1)
	p := plan(t, workload.FollowerScript)
	job := compile(t, workload.FollowerScript, CompileOptions{Points: digestPoints(t, p, "nonempty", "grouped")})[0]
	if ops := job.Inputs[0].Ops; len(ops) != 3 || ops[0].Kind != PhysFilter || ops[1].Kind != PhysDigest || ops[2].Kind != PhysDigest {
		t.Fatalf("map chain = %v, want filter, digest, digest", ops)
	}
	df := func(point int) *digest.Writer {
		return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "m0-000"}, 1, 0, func(digest.Report) {})
	}
	rows, spans, out, encoded := digestedFromSpans(t, job, lines, df)
	if len(rows) < 2 || !slices.Equal(spans, rows) || sum(rows) != len(lines) {
		t.Errorf("%d rows read as batches %v, of which digested from the spans %v; want every one of %d, over more than one block",
			sum(rows), rows, spans, len(lines))
	}
	passing := 0
	for _, l := range lines {
		if !strings.HasSuffix(l, "\t0") {
			passing++
		}
	}
	if passing == len(lines) || out.recordsOut != int64(passing) || out.digested != int64(2*passing) || encoded {
		t.Errorf("%d of %d records passed the filter, %d digested at two points, want %d of %d and %d; encoded a record for its digest: %v",
			out.recordsOut, len(lines), out.digested, passing, len(lines), 2*passing, encoded)
	}
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestMapReportsBoundEachAttempt: the report buffer a map attempt is
// sized to before its first record (mapReports) holds every report it
// emits, in-chain digests and the audit sum alike, at every chunking —
// exactly, where every digest of the chain sees every record of the split.
func TestMapReportsBoundEachAttempt(t *testing.T) {
	lines := workload.Weather(1000, 40, 1)
	for _, chunk := range []int{0, 1, 100} {
		p := plan(t, workload.WeatherScript)
		jobs := compile(t, workload.WeatherScript, CompileOptions{Points: digestPoints(t, p, "w", "bystation", "avgs", "byavg")})
		for _, j := range jobs {
			j.SID, j.Audit = j.ID, true
		}
		tr := runJobs(t, dfs.NewWith(dfs.Options{}), map[string][]string{workload.WeatherPath: lines}, p, jobs, func(e *Engine) {
			e.DigestChunk = chunk
			e.Cost.SplitRecords = 300
		})
		emitted := map[[2]string]int{}
		for _, r := range tr.reports {
			emitted[[2]string{r.Key.SID, r.Key.Task[strings.LastIndexByte(r.Key.Task, '/')+1:]}]++
		}
		maps := 0
		for _, j := range jobs {
			for _, task := range tr.eng.Job(j.ID).tasks {
				if task.Kind != MapTask {
					continue
				}
				maps++
				got, bound := emitted[[2]string{j.SID, task.ID()}], mapReports(task, chunk)
				if got > bound || j == jobs[0] && got != bound {
					t.Errorf("d=%d: %s %s emitted %d reports, its buffer was sized for %d", chunk, j.ID, task.ID(), got, bound)
				}
			}
		}
		if maps < 4 {
			t.Fatalf("d=%d: %d map tasks, want several splits", chunk, maps)
		}
	}
}
