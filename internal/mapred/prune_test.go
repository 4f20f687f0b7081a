package mapred

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
)

const flightsLoad = "fl = LOAD 'in/fl' AS (year:int, month:int, origin, dest, delay:int);\n"

// opaqueExpr is an expression type pig.Columns has never heard of.
type opaqueExpr struct{ pig.Lit }

// TestNeededCols pins the column-mask derivation: nil wherever something
// consumes the input tuple whole or the walk cannot see every read, the
// exact set otherwise; and where a digest or sample reads the source
// record whole, the exact set to evaluate with every column's bytes
// carried.
func TestNeededCols(t *testing.T) {
	mask := func(cols ...int) []bool {
		m := []bool{}
		for _, c := range cols {
			m = append(m, make([]bool, c+1-len(m))...)
			m[c] = true
		}
		return m
	}
	cases := []struct {
		name   string
		src    string
		points []string       // aliases carrying verification points
		tweak  func(*JobSpec) // applied to the first job
		want   [][]bool       // per input of the first job
		whole  bool           // the source record's bytes are read whole: carry is nil
	}{
		{name: "filter-project", src: flightsLoad + `
late = FILTER fl BY delay > 0;
p = FOREACH late GENERATE origin, month * 2;
STORE p INTO 'out/p';`, want: [][]bool{mask(1, 2, 4)}},
		{name: "digest-after-project", src: flightsLoad + `
p = FOREACH fl GENERATE dest;
STORE p INTO 'out/p';`, points: []string{"p"}, want: [][]bool{mask(3)}},
		{name: "project-then-shuffle", src: flightsLoad + `
p = FOREACH fl GENERATE origin, delay;
o = ORDER p BY delay;
STORE o INTO 'out/o';`, want: [][]bool{mask(2, 4)}},
		{name: "count-by-key", src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl);
STORE c INTO 'out/c';`, want: [][]bool{mask(2)}},
		{name: "filter-sum-by-key", src: flightsLoad + `
f = FILTER fl BY year > 2000;
g = GROUP f BY dest;
c = FOREACH g GENERATE group, SUM(f.delay), COUNT(f);
STORE c INTO 'out/c';`, want: [][]bool{mask(0, 3, 4)}},
		{name: "count-all-reads-nothing", src: flightsLoad + `
g = GROUP fl ALL;
c = FOREACH g GENERATE COUNT(fl);
STORE c INTO 'out/c';`, want: [][]bool{{}}},

		{name: "digest-before-project", src: flightsLoad + `
f = FILTER fl BY delay > 0;
p = FOREACH f GENERATE origin;
STORE p INTO 'out/p';`, points: []string{"f"}, want: [][]bool{mask(2, 4)}, whole: true},
		{name: "group-point-digests-map-side", src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl);
STORE c INTO 'out/c';`, points: []string{"g"}, want: [][]bool{mask(2)}, whole: true},
		{name: "sample", src: flightsLoad + `
s = SAMPLE fl 0.5;
p = FOREACH s GENERATE origin;
STORE p INTO 'out/p';`, want: [][]bool{mask(2)}, whole: true},
		{name: "join", src: flightsLoad + `
b = LOAD 'in/ap' AS (code, city);
j = JOIN fl BY origin, b BY code;
STORE j INTO 'out/j';`, want: [][]bool{nil, nil}},
		{name: "distinct", src: flightsLoad + `
d = DISTINCT fl;
STORE d INTO 'out/d';`, want: [][]bool{nil}},
		{name: "order-whole-tuple", src: flightsLoad + `
o = ORDER fl BY delay;
STORE o INTO 'out/o';`, want: [][]bool{nil}},
		{name: "map-only-store", src: flightsLoad + `
late = FILTER fl BY delay > 0;
STORE late INTO 'out/late';`, want: [][]bool{nil}},
		{name: "aggregate-not-combined", src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl);
STORE c INTO 'out/c';`, tweak: func(j *JobSpec) { uncombined(j) }, want: [][]bool{nil}},
		{name: "audit-in", src: flightsLoad + `
p = FOREACH fl GENERATE origin;
STORE p INTO 'out/p';`, tweak: func(j *JobSpec) { j.Inputs[0].AuditIn = true }, want: [][]bool{nil}},
		{name: "key-column-past-schema", src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl);
STORE c INTO 'out/c';`, tweak: func(j *JobSpec) { j.Inputs[0].KeyCols = []int{5} }, want: [][]bool{nil}},
		{name: "aggregate-column-past-schema", src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, MAX(fl.delay);
STORE c INTO 'out/c';`, tweak: func(j *JobSpec) {
			j.Reduce.Gens[1].Agg = &pig.Aggregate{Func: "max", ColIdx: 9}
		}, want: [][]bool{nil}},
		{name: "unrecognised-expr", src: flightsLoad + `
f = FILTER fl BY delay > 0;
p = FOREACH f GENERATE origin;
STORE p INTO 'out/p';`, tweak: func(j *JobSpec) { j.Inputs[0].Ops[0].Pred = &opaqueExpr{} }, want: [][]bool{nil}},
		{name: "no-schema", src: flightsLoad + `
p = FOREACH fl GENERATE origin;
STORE p INTO 'out/p';`, tweak: func(j *JobSpec) { j.Inputs[0].Schema = nil }, want: [][]bool{nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := plan(t, tc.src)
			jobs, err := Compile(p, CompileOptions{Points: digestPoints(t, p, tc.points...)})
			if err != nil {
				t.Fatal(err)
			}
			job := jobs[0]
			if tc.tweak != nil {
				tc.tweak(job)
			}
			if len(job.Inputs) != len(tc.want) {
				t.Fatalf("job has %d inputs, want %d", len(job.Inputs), len(tc.want))
			}
			for i, want := range tc.want {
				eval, carry := neededCols(job, i)
				if (eval == nil) != (want == nil) || !slices.Equal(eval, want) {
					t.Errorf("input %d: neededCols evaluates %v, want %v", i, eval, want)
				}
				if tc.whole {
					want = nil
				}
				if (carry == nil) != (want == nil) || !slices.Equal(carry, want) {
					t.Errorf("input %d: neededCols carries %v, want %v", i, carry, want)
				}
			}
		})
	}
}

// pruneScripts are the shapes FuzzPrunedDecodeEquivalence drives over
// five-column rows: each leaves some input column unread on the map
// side; the last has a verification point on the filter, which reads
// every column's bytes and evaluates two.
var pruneScripts = []struct {
	src    string
	points []string
	stores []string
}{
	{src: flightsLoad + `
late = FILTER fl BY delay > 0;
p = FOREACH late GENERATE origin, month * 2, CONCAT(dest, 'x');
STORE p INTO 'out/p';`, points: []string{"p"}, stores: []string{"out/p"}},
	{src: flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl);
STORE c INTO 'out/c';`, points: []string{"c"}, stores: []string{"out/c"}},
	{src: flightsLoad + `
f = FILTER fl BY year != 3;
g = GROUP f BY dest;
c = FOREACH g GENERATE group, SUM(f.delay), MIN(f.origin), MAX(f.month), COUNT(f);
STORE c INTO 'out/c';`, points: []string{"c"}, stores: []string{"out/c"}},
	{src: flightsLoad + `
p = FOREACH fl GENERATE dest, delay;
o = ORDER p BY delay DESC, dest;
STORE o INTO 'out/o';`, points: []string{"p", "o"}, stores: []string{"out/o"}},
	{src: flightsLoad + `
p = FOREACH fl GENERATE origin, dest;
d = DISTINCT p;
g = GROUP fl ALL;
n = FOREACH g GENERATE COUNT(fl);
STORE d INTO 'out/d';
STORE n INTO 'out/n';`, points: []string{"d", "n"}, stores: []string{"out/d", "out/n"}},
	{src: flightsLoad + `
late = FILTER fl BY delay > 0;
g = GROUP late BY origin;
c = FOREACH g GENERATE group, COUNT(late);
STORE c INTO 'out/c';`, points: []string{"late", "c"}, stores: []string{"out/c"}},
}

// FuzzPrunedDecodeEquivalence requires the column mask to be invisible:
// over random script shapes and rows — short rows, rows wider than the
// schema, escaped fields, text in int columns, honest and commission-
// faulty tasks, the input appended or (rows' top bit) installed as a part
// file whose tail is held as lines — STORE bytes, digest reports and
// engine metrics are identical with the derived mask and with every input
// decoded in full.
// The all-columns side marks every input AuditIn, which (without
// JobSpec.Audit) does nothing but force a nil mask.
func FuzzPrunedDecodeEquivalence(f *testing.F) {
	for i := range pruneScripts {
		f.Add(int64(i+1), uint8(i), uint16(100+37*i), uint8(i%3+1), uint8(10*i), i%2 == 1)
		// The input a part file: blocks and the unsealed tail, held as lines.
		f.Add(int64(i+1), uint8(i), uint16(1<<15|(100+37*i)), uint8(i%3+1), uint8(10*i), i%2 == 0)
	}
	fields := []string{"ORD", "7", "-12", "", "x\\ty", "a\\\\b", "\\n", "3000000000", " 5", "LAX", "0", "+4", "1e3"}
	f.Fuzz(func(t *testing.T, seed int64, script uint8, rows uint16, reduces, chunk uint8, faulty bool) {
		sc := pruneScripts[int(script)%len(pruneScripts)]
		state := uint64(seed) | 1
		next := func(n int) int {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return int(state % uint64(n))
		}
		lines := make([]string, int(rows)%300+1)
		for i := range lines {
			cols := []int{5, 5, 5, 5, 1, 3, 7}[next(7)] // mostly schema-width, some short, some wide
			row := make([]string, cols)
			for c := range row {
				if c == 0 || c == 1 || c == 4 { // int columns: mostly small ints
					row[c] = fmt.Sprint(next(9) - 2)
					if next(10) > 0 {
						continue
					}
				}
				row[c] = fields[next(len(fields))]
			}
			lines[i] = strings.Join(row, "\t")
		}
		p := plan(t, sc.src)
		opts := CompileOptions{Points: digestPoints(t, p, sc.points...), NumReduces: int(reduces)%4 + 1}
		var got [2]string
		for side := range got {
			jobs, err := Compile(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			pruned := false
			for _, j := range jobs {
				for i := range j.Inputs {
					j.Inputs[i].AuditIn = side == 1
					eval, _ := neededCols(j, i)
					pruned = pruned || eval != nil
				}
			}
			if side == 1 && pruned {
				t.Fatal("all-columns side still derives a mask")
			}
			fs := dfs.NewWith(dfs.Options{BlockSize: 1 << 10}) // several blocks per split
			if rows&(1<<15) != 0 {
				installPart(fs, "in/fl", lines)
			} else {
				fs.Append("in/fl", lines...)
			}
			eng := NewEngine(fs, cluster.New(4, 2), nil, DefaultCostModel())
			eng.Cost.SplitRecords = 64
			eng.DigestChunk = int(chunk)
			if faulty {
				eng.TaskHook = func(cluster.NodeID, *Task) TaskFault { return TaskFault{Corrupt: cluster.Corrupt} }
			}
			tr := &testRun{fs: fs, eng: eng, plan: p, jobs: jobs}
			eng.DigestSink = func(r digest.Report) { tr.reports = append(tr.reports, r) }
			for _, j := range jobs {
				if _, err := eng.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			eng.Run()
			got[side] = observables(t, tr, sc.stores) + fmt.Sprintf("%+v\n", eng.Metrics)
		}
		if got[0] != got[1] {
			t.Errorf("column mask changed observables (script %d, %d rows, faulty=%v):\n--- masked ---\n%s--- all columns ---\n%s",
				int(script)%len(pruneScripts), len(lines), faulty, got[0], got[1])
		}
	})
}

// TestMapOutcomesDoNotPinSplits: a combining map task keeps a few dozen
// keys out of thousands of records, and its outcome lives until the
// job's reduces finish. Holding the outcomes of many splits must cost
// the keys, not the splits: every value kept is a substring of its
// split's one backing string until it is copied into the outcome — the
// combiner's arena, or the selective chain's key text.
func TestMapOutcomesDoNotPinSplits(t *testing.T) {
	const splits, perSplit = 40, 2000
	srcs := map[string]string{
		"aggregate": flightsLoad + `
g = GROUP fl BY origin;
c = FOREACH g GENERATE group, COUNT(fl), MIN(fl.dest);
STORE c INTO 'out/c';`,
		"distinct": flightsLoad + `
p = FOREACH fl GENERATE origin, dest;
d = DISTINCT p;
STORE d INTO 'out/d';`,
		"filter-then-sort": flightsLoad + `
f = FILTER fl BY delay == 1;
o = ORDER f BY origin;
STORE o INTO 'out/o';`,
	}
	fs := dfs.NewWith(dfs.Options{})
	flights := make([]string, splits*perSplit)
	for i := range flights {
		flights[i] = fmt.Sprintf("%d\t%d\tairport-%02d\tairport-%02d\t%d", 1990+i%20, 1+i%12, i%40, (i/40)%2, i%500)
	}
	fs.Append("in/fl", flights...)
	r, err := fs.OpenReader("in/fl")
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			job := compile(t, src, CompileOptions{NumReduces: 2})[0]
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			outcomes := make([]*mapOutcome, splits)
			for s := range outcomes {
				outcomes[s] = runMapTask(job, 0, r, s*perSplit, (s+1)*perSplit, nil, nil, taskObs{}, new(taskScratch))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			// ~45 bytes a record: pinning the text alone would hold 3.6 MB.
			if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 2<<20 {
				t.Errorf("%d map outcomes hold %d KiB of heap, want under 2 MiB", splits, held>>10)
			}
			runtime.KeepAlive(outcomes)
		})
	}
	runtime.KeepAlive(fs)
}

// TestMapTaskAllocs pins the per-task allocation count of the map paths
// the micro-benchmarks track, per 1,000 input records, on a scratch a task
// before it has grown, as a slot's is: read from one sealed block and from
// a part file's unsealed tail. Neither grows with the record count beyond value
// arrays, arena chunks and slice doublings, one row serves every record,
// and held lines cost no more than the block; a combining task, which keeps nothing a record,
// costs over 8,000 records of a tail what it costs over 1,000.
func TestMapTaskAllocs(t *testing.T) {
	mapOnly := compile(t, `
a = LOAD 'in/edges' AS (user:int, follower:int);
f = FILTER a BY follower != 0;
p = FOREACH f GENERATE user, user * follower AS prod;
STORE p INTO 'out/prod';`, CompileOptions{})[0]
	combine := compile(t, followerSrc, CompileOptions{NumReduces: 4})[0]
	shuffle := uncombined(compile(t, followerSrc, CompileOptions{NumReduces: 4})...)[0]
	edges := func(n int) []string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", i%16, (i*7919+13)%1000)
		}
		return lines
	}
	lines := edges(1000)
	allocs := func(job *JobSpec, r *dfs.Reader, n int) float64 {
		sc := new(taskScratch) // warm from AllocsPerRun's first, uncounted run on
		return testing.AllocsPerRun(20, func() {
			runMapTask(job, 0, r, 0, n, nil, nil, taskObs{}, sc).publish(sc, nil)
		})
	}
	for _, tc := range []struct {
		name string
		job  *JobSpec
		max  float64
	}{
		// The outcome's partitions, its entries' value arrays and arena,
		// its key text and the chain; the tables are the scratch's.
		{"combine", combine, 26},
		// Value arrays, the key text and the partitions' records.
		{"shuffle", shuffle, 38},
		// The lines stay in the scratch's buffer, and a body that keeps
		// none of them copies none.
		{"map-only", mapOnly, 12},
	} {
		sealed := allocs(tc.job, sealedBlock(t, lines), len(lines))
		if sealed > tc.max {
			t.Errorf("%s map task over a sealed block = %v allocs per 1000 records, want <= %v", tc.name, sealed, tc.max)
		}
		if got := allocs(tc.job, tailLines(t, lines), len(lines)); got > sealed {
			t.Errorf("%s map task over an unsealed tail = %v allocs per 1000 records, over a sealed block %v", tc.name, got, sealed)
		}
	}
	long := edges(8000)
	if one, eight := allocs(combine, tailLines(t, lines), len(lines)), allocs(combine, tailLines(t, long), len(long)); eight != one {
		t.Errorf("combining map task over a tail: 8000 records = %v allocs, 1000 records %v: want none a record", eight, one)
	}
	// The uncombined shuffle's sort, on a warm slot, allocates nothing: its
	// radix pairs and permutation are the slot's. So does the comparator
	// finishing ties of keys longer than their word.
	sc := new(taskScratch)
	runs := runMapTask(shuffle, 0, sealedBlock(t, lines), 0, len(lines), nil, nil, taskObs{}, sc).partitions
	tied := sortFixture([]byte(strings.Repeat("\x00\x01\xf0\xf1\xf2\xf3", 60)), sortKeyShapes[3])
	if got := testing.AllocsPerRun(20, func() {
		sortRuns(runs, shuffle.Reduce, sc)
		sortRuns(tied, &ReduceSpec{Kind: ReduceDistinct}, sc)
	}); got != 0 {
		t.Errorf("sorting the uncombined shuffle's runs on a warm slot = %v allocs, want 0", got)
	}
}
