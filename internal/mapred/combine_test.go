package mapred

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// TestCompileMarksCombine pins which compiled jobs carry the combiner
// flag: algebraic grouped aggregates and DISTINCT combine, float-typed
// SUM/AVG and sorts don't, and the uncombined oracle helper clears it.
func TestCompileMarksCombine(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []bool // per compiled job with a Reduce spec, in job order
		off  bool   // pass the jobs through uncombined first
	}{
		{name: "count-int-key", src: followerSrc, want: []bool{true}},
		{name: "count-disabled", src: followerSrc, want: []bool{false}, off: true},
		{name: "avg-int", src: `
a = LOAD 'in/w' AS (st, temp:int);
g = GROUP a BY st;
r = FOREACH g GENERATE group AS st, AVG(a.temp) AS t;
STORE r INTO 'out/r';
`, want: []bool{true}},
		{name: "avg-untyped", src: `
a = LOAD 'in/w' AS (st, temp);
g = GROUP a BY st;
r = FOREACH g GENERATE group AS st, AVG(a.temp) AS t;
STORE r INTO 'out/r';
`, want: []bool{false}},
		{name: "min-max-any-type", src: `
a = LOAD 'in/w' AS (st, temp);
g = GROUP a BY st;
r = FOREACH g GENERATE group AS st, MIN(a.temp), MAX(a.temp), COUNT(a);
STORE r INTO 'out/r';
`, want: []bool{true}},
		{name: "mixed-one-inalgebraic", src: `
a = LOAD 'in/w' AS (st, temp);
g = GROUP a BY st;
r = FOREACH g GENERATE group AS st, MIN(a.temp), SUM(a.temp);
STORE r INTO 'out/r';
`, want: []bool{false}},
		{name: "distinct", src: `
a = LOAD 'in/w' AS (st, temp:int);
d = DISTINCT a;
STORE d INTO 'out/d';
`, want: []bool{true}},
		{name: "order", src: `
a = LOAD 'in/w' AS (st, temp:int);
o = ORDER a BY temp;
STORE o INTO 'out/o';
`, want: []bool{false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := compileHelper(tc.src, CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.off {
				uncombined(jobs...)
			}
			var got []bool
			for _, j := range jobs {
				if j.Reduce != nil {
					got = append(got, j.Reduce.Combine)
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("combine flags = %v, want %v", got, tc.want)
			}
		})
	}
}

// equivalenceScripts are grouped-aggregate / DISTINCT workloads whose
// observables must not depend on the combiner setting. Aliases name the
// verification points to instrument.
var equivalenceScripts = []struct {
	name    string
	src     string
	aliases []string
	stores  []string
}{
	{name: "follower-count", src: followerSrc,
		aliases: []string{"ne", "counts"}, stores: []string{"out/counts"}},
	{name: "all-aggregates-int", src: `
w = LOAD 'in/weather' AS (st, temp:int);
g = GROUP w BY st;
r = FOREACH g GENERATE group AS st, COUNT(w) AS n, SUM(w.temp), AVG(w.temp), MIN(w.temp), MAX(w.temp);
STORE r INTO 'out/agg';
`, aliases: []string{"r"}, stores: []string{"out/agg"}},
	{name: "group-all", src: `
w = LOAD 'in/weather' AS (st, temp:int);
g = GROUP w ALL;
r = FOREACH g GENERATE COUNT(w) AS n, AVG(w.temp) AS t;
STORE r INTO 'out/all';
`, aliases: []string{"r"}, stores: []string{"out/all"}},
	{name: "distinct", src: `
w = LOAD 'in/weather' AS (st, temp:int);
d = DISTINCT w;
STORE d INTO 'out/d';
`, aliases: []string{"d"}, stores: []string{"out/d"}},
	{name: "avg-untyped-not-combined", src: `
w = LOAD 'in/weather' AS (st, temp);
g = GROUP w BY st;
r = FOREACH g GENERATE group AS st, AVG(w.temp) AS t;
STORE r INTO 'out/u';
`, aliases: []string{"r"}, stores: []string{"out/u"}},
	{name: "chained-groups", src: `
w = LOAD 'in/weather' AS (st, temp:int);
g = GROUP w BY st;
c = FOREACH g GENERATE group AS st, COUNT(w) AS n;
g2 = GROUP c BY n;
c2 = FOREACH g2 GENERATE group AS n, COUNT(c) AS stations;
STORE c2 INTO 'out/chain';
`, aliases: []string{"c", "c2"}, stores: []string{"out/chain"}},
}

// observables renders everything a verifier or consumer can see — the
// digest-report multiset and the raw bytes of every STORE tree. Report
// ordering is normalized by the fully qualifying (key, replica) sort:
// combining changes task durations, so interleaving across tasks may
// legitimately differ while the set of reports may not.
func observables(t *testing.T, tr *testRun, stores []string) string {
	t.Helper()
	lines := make([]string, 0, len(tr.reports))
	for _, r := range tr.reports {
		lines = append(lines, fmt.Sprintf("%s replica=%d final=%v records=%d sum=%s",
			r.Key.String(), r.Replica, r.Final, r.Records, hex.EncodeToString(r.Sum[:])))
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, store := range stores {
		out, err := tr.fs.ReadTree(store)
		if err != nil {
			t.Fatalf("read %s: %v", store, err)
		}
		fmt.Fprintf(&b, "## %s\n", store)
		for _, l := range out {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func weatherLines(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		// Skewed stations, negative and positive temperatures, a few
		// repeated rows for DISTINCT to collapse.
		lines[i] = fmt.Sprintf("st-%d\t%d", i%13, (i*37+11)%201-100)
	}
	return lines
}

// TestCombineOnOffEquivalence is the contract the whole design rests
// on: for every workload, STORE bytes (in part-file order) and the
// digest-report multiset are byte-identical with the combiner on and
// off.
func TestCombineOnOffEquivalence(t *testing.T) {
	edgeLines := make([]string, 400)
	for i := range edgeLines {
		edgeLines[i] = fmt.Sprintf("%d\t%d", i%23, (i*31+7)%40) // some zero followers
	}
	inputs := map[string][]string{
		"in/edges":   edgeLines,
		"in/weather": weatherLines(400),
	}
	for _, sc := range equivalenceScripts {
		t.Run(sc.name, func(t *testing.T) {
			p := plan(t, sc.src)
			points := digestPoints(t, p, sc.aliases...)
			opts := CompileOptions{Points: points, NumReduces: 3}
			mutate := func(e *Engine) { e.DigestChunk = 50 }
			got := [2]string{
				observables(t, run(t, sc.src, inputs, opts, mutate), sc.stores),
				observables(t, runUncombined(t, sc.src, inputs, opts, mutate), sc.stores),
			}
			if got[0] != got[1] {
				t.Errorf("observables differ between combine on and off:\n--- on ---\n%s--- off ---\n%s",
					got[0], got[1])
			}
		})
	}
}

// TestMapTaskCombineOutcome checks the combiner's accounting: every
// surviving record is folded, the shuffle carries one partial per
// (partition, key), and each partition leaves the task key-sorted.
func TestMapTaskCombineOutcome(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	if !job.Reduce.Combine {
		t.Fatal("follower job not marked combinable")
	}
	lines := make([]string, 600)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\t%d", i%16, i+1) // 16 keys, no zero followers
	}
	out := runMapTask(job, 0, sealedBlock(t, lines), 0, len(lines), nil, nil, taskObs{}, new(taskScratch))
	if out.recordsOut != 600 || out.combinedIn != 600 {
		t.Errorf("recordsOut=%d combinedIn=%d, want 600/600", out.recordsOut, out.combinedIn)
	}
	if out.shuffleRecs != 16 {
		t.Errorf("shuffleRecs=%d, want 16 (one partial per key)", out.shuffleRecs)
	}
	total := 0
	for pi, part := range out.partitions {
		recs := readRun(part)
		total += len(recs)
		if !slices.IsSortedFunc(recs, func(a, b testRec) int {
			return strings.Compare(a.key, b.key)
		}) {
			t.Error("partition not key-sorted")
		}
		for _, r := range recs {
			if p := partitionOf([]byte(r.key), job.NumReduces); p != pi {
				t.Errorf("key %q combined into partition %d, partitionOf says %d", r.key, pi, p)
			}
		}
	}
	if total != 16 {
		t.Errorf("emitted records=%d, want 16", total)
	}
}

// TestPartitionOfBytesMatchesString: partitionOf, which both shuffles place
// a key by, and the combiner oracle's own partitionOfBytes, which
// FuzzFoldOnSpanMatchesTuples checks every emitted run's partition with,
// must agree on every key.
func TestPartitionOfBytesMatchesString(t *testing.T) {
	keys := []string{"", "a", "st-7", "12\t34", "\x00\xff", "longer-key-with-more-bytes"}
	for _, k := range keys {
		for _, n := range []int{1, 2, 3, 16} {
			if partitionOf([]byte(k), n) != partitionOfBytes([]byte(k), n) {
				t.Errorf("partition mismatch for %q n=%d", k, n)
			}
		}
	}
}

// TestCombineLongProbeChain: keys whose hashes share their top ten bits
// start their probes at one slot of every table of up to 1,024 slots, so
// forty of them make one chain, which each grow (16, 32, 64 slots)
// places again. Keys that fit the probe's word, longer keys that share
// their word, and longer keys that do not, must each still find their one
// entry, folded in the order they were put in and in reverse, and emit
// what the oracle does; so must a fold of the same keys read off a sealed
// block's spans.
func TestCombineLongProbeChain(t *testing.T) {
	schema := &tuple.Schema{Fields: []tuple.Field{{Name: "k", Type: tuple.TypeString}, {Name: "v", Type: tuple.TypeInt}}}
	in := &JobInput{Schema: schema, KeyCols: []int{0}, Tag: -1}
	spec := &ReduceSpec{Kind: ReduceAggregate, Combine: true, Gens: []pig.GenItem{
		{Name: "group"},
		{Agg: &pig.Aggregate{Func: "count", ColIdx: -1}},
		{Agg: &pig.Aggregate{Func: "sum", ColIdx: 1}},
	}}
	for _, format := range []string{"k%d", "a-longer-key-%d", "%05d-a-longer-key"} {
		byTop := map[uint64][]string{}
		var chain []string
		for i := 0; chain == nil; i++ {
			k := fmt.Sprintf(format, i)
			top := keyHash(keyWord(k), k) >> 54
			if byTop[top] = append(byTop[top], k); len(byTop[top]) == 40 {
				chain = byTop[top]
			}
		}
		// Every key once in order, then again in reverse, each with a value
		// of its own.
		var lines []string
		for pass := 0; pass < 2; pass++ {
			for i := range chain {
				if pass == 1 {
					i = len(chain) - 1 - i
				}
				lines = append(lines, fmt.Sprintf("%s\t%d", chain[i], 100*pass+i))
			}
		}
		c := newCombiner(spec, in, 3, combineTable{}, nil)
		oracle := newOracleCombiner(&c)
		var text []byte
		var vals valArrays
		var chainOp opChain // tuples, not source rows
		for _, line := range lines {
			row := new(tuple.Decoder).DecodeLine(line, schema)
			text = c.fold(row, &chainOp, text, &vals)
			oracle.fold(row)
		}
		if len(c.table.entries) != len(chain) || len(c.table.slots) != 64 {
			t.Fatalf("%q: %d keys folded twice left %d entries in %d slots, want %d in 64", format, len(chain), len(c.table.entries), len(c.table.slots), len(chain))
		}
		// One run of slots from the start they share holds every key.
		mask := uint64(len(c.table.slots) - 1)
		start := slotOf(keyHash(keyWord(chain[0]), chain[0]), mask)
		for i := range chain {
			if slotOf(keyHash(keyWord(chain[i]), chain[i]), mask) != start {
				t.Fatalf("%q: %q and %q start their probes apart: no chain", format, chain[0], chain[i])
			}
			if c.table.slots[(start+uint64(i))&mask] == 0 {
				t.Fatalf("%q: slot %d of the chain from %d is empty: grow placed its keys elsewhere", format, i, start)
			}
		}
		parts, total := c.emit(text, &vals, new(taskScratch))
		for p := range parts {
			parts[p].text, parts[p].vals = string(text), vals.arrays
		}
		got := renderOutcome(&mapOutcome{partitions: parts, localBytes: total}, nil)
		parts, total = oracle.emit(3)
		if want := renderOutcome(&mapOutcome{partitions: parts, localBytes: total}, nil); got != want {
			t.Errorf("%q: a chain of %d keys emitted\n%s\nthe oracle\n%s", format, len(chain), got, want)
		}
		foldOnSpan(t, "raw", sealedBlock(t, lines), lines, schema, in, spec, 3)
	}
}

// TestMergeRunsMatchesReferenceSort: the loser-tree merge over sorted
// runs, keyed and by a comparator, must emit exactly the (key, run,
// position) order a global stable sort of the tagged concatenation
// produces, for every tree shape from no runs to 40.
func TestMergeRunsMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		keys := make([][]string, trial%41)
		for r := range keys {
			keys[r] = make([]string, rng.Intn(8))
			for i := range keys[r] {
				keys[r][i] = fmt.Sprintf("k%02d", rng.Intn(5))
			}
		}
		want := stableMerge(keys)
		for _, keyed := range []bool{true, false} {
			if got := merged(keys, keyed); !slices.Equal(got, want) {
				t.Fatalf("trial %d, keyed %v: merge order %v, want %v", trial, keyed, got, want)
			}
		}
	}
}

// merged sorts each run's keys, lays the runs out and lists what the
// merge emits, keyed or by strings.Compare on the keys as its comparator:
// each record's key, run and position in its run.
func merged(keys [][]string, keyed bool) []string {
	parts := make([][]testRec, len(keys))
	for r, ks := range keys {
		ks = slices.Clone(ks)
		slices.Sort(ks)
		for i, k := range ks {
			parts[r] = append(parts[r], testRec{key: k, t: tuple.Tuple{tuple.Int(int64(r)), tuple.Int(int64(i))}})
		}
	}
	var cmp func(a, b recAt) int
	if !keyed {
		cmp = func(a, b recAt) int { return strings.Compare(a.key(), b.key()) }
	}
	var got []string
	mergeRuns(layOut(parts...), keyed, cmp, func(r recAt) { got = append(got, fmt.Sprintf("%q %v", r.key(), r.tuple())) }, new(taskScratch))
	return got
}

// stableMerge is what merged is to list: every run's sorted keys,
// tagged, in the stable sort by (strings.Compare, run, position).
func stableMerge(keys [][]string) []string {
	type tagged struct {
		key      string
		run, pos int
	}
	var all []tagged
	for r, ks := range keys {
		ks = slices.Clone(ks)
		slices.Sort(ks)
		for i, k := range ks {
			all = append(all, tagged{k, r, i})
		}
	}
	slices.SortStableFunc(all, func(a, b tagged) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		if c := a.run - b.run; c != 0 {
			return c
		}
		return a.pos - b.pos
	})
	want := make([]string, len(all))
	for i, a := range all {
		want[i] = fmt.Sprintf("%q %v", a.key, tuple.Tuple{tuple.Int(int64(a.run)), tuple.Int(int64(a.pos))})
	}
	return want
}

// mergeFuzzKeys reads the fuzzer's bytes as records: a byte whose high
// nibble is the record's run (of sixteen) and whose low one its key's
// length, then the key, cut short where the bytes end.
func mergeFuzzKeys(data []byte) [][]string {
	var keys [][]string
	for len(data) > 0 {
		run, n := int(data[0]>>4), min(int(data[0]&15), len(data)-1)
		for len(keys) <= run {
			keys = append(keys, nil)
		}
		keys[run] = append(keys[run], string(data[1:1+n]))
		data = data[1+n:]
	}
	return keys
}

// mergeFuzzInput is mergeFuzzKeys' inverse: key i goes to run runs[i].
func mergeFuzzInput(keys []string, runs ...int) []byte {
	var data []byte
	for i, k := range keys {
		data = append(data, byte(runs[i%len(runs)]<<4|len(k)))
		data = append(data, k...)
	}
	return data
}

// FuzzMergeRunsMatchesStable holds the keyed merge, and the merge by a
// comparator, to the stable sort by (strings.Compare, run, position). Its
// seeds are keys that a word does not tell apart, or tells apart only by
// its length byte: keys of 8 bytes and more that share their first 7, NUL
// and 0xff bytes, the empty key and keys that are prefixes of others.
func FuzzMergeRunsMatchesStable(f *testing.F) {
	for _, seed := range [][]byte{
		nil,
		mergeFuzzInput([]string{"abcdefgX", "abcdefgA", "abcdefg", "abcdefgXY", "abcdefgX", "abcdefgA\x00"}, 0, 1, 2),
		mergeFuzzInput([]string{"\x00", "\xff", "", "\x00\x00", "a\xff", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff", "\x00\x00\x00\x00\x00\x00\x00\x00"}, 3, 0, 5, 1),
		mergeFuzzInput([]string{"", "a", "ab", "abcdefg", "abcdefgh", "abcdefghi", "", "ab"}, 1, 0),
		mergeFuzzInput([]string{"user0001", "user0002", "user0001", "user00010", "user0001", "user000", "user0002"}, 15, 7, 0, 9),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := mergeFuzzKeys(data)
		want := stableMerge(keys)
		for _, keyed := range []bool{true, false} {
			if got := merged(keys, keyed); !slices.Equal(got, want) {
				t.Fatalf("runs %q, keyed %v:\n got %v\nwant %v", keys, keyed, got, want)
			}
		}
	})
}

// TestKeyedMergeAllocs: on a warm slot the keyed merge of 24 runs
// allocates nothing — its head words, positions and tree are the
// scratch's.
func TestKeyedMergeAllocs(t *testing.T) {
	parts := make([][]testRec, 24)
	for r := range parts {
		for i := 0; i < 50; i++ {
			parts[r] = append(parts[r], testRec{key: fmt.Sprintf("user%06d", i*7+r%5)})
		}
	}
	runs, sc := layOut(parts...), new(taskScratch)
	n := 0
	count := func(recAt) { n++ }
	mergeRuns(runs, true, nil, count, sc)
	if n != 24*50 {
		t.Fatalf("merged %d records, want %d", n, 24*50)
	}
	if got := testing.AllocsPerRun(20, func() { mergeRuns(runs, true, nil, count, sc) }); got != 0 {
		t.Errorf("warm keyed merge of 24 runs = %v allocs, want 0", got)
	}
}

// TestMergeRunsNilCmpConcatenates: a nil comparator (bare-LIMIT
// pass-through jobs) must emit runs whole, in run order.
func TestMergeRunsNilCmp(t *testing.T) {
	runs := layOut(
		[]testRec{{key: "z"}, {key: "a"}},
		nil,
		[]testRec{{key: "m"}},
	)
	var got []string
	mergeRuns(runs, false, nil, func(r recAt) { got = append(got, r.key()) }, new(taskScratch))
	if want := []string{"z", "a", "m"}; !slices.Equal(got, want) {
		t.Errorf("nil-cmp merge = %v, want %v", got, want)
	}
}

// TestReduceMergeLeavesRunsIntact: reduce attempts share map outcomes,
// so the merge must never mutate runs (a backup attempt of the same
// task reads them concurrently).
func TestReduceMergeLeavesRunsIntact(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 1})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\t%d", i%7, i+1)
	}
	out := runMapTask(job, 0, tailLines(t, lines), 0, len(lines), nil, nil, taskObs{}, new(taskScratch))
	runs := []sortedRun{out.partitions[0]}
	before := readRun(runs[0])
	for i := range before {
		before[i].t = slices.Clone(before[i].t)
	}
	_ = runReduceTask(job, runs, nil, taskObs{}, new(taskScratch))
	after := readRun(runs[0])
	for i := range before {
		if before[i].key != after[i].key || before[i].tag != after[i].tag || !slices.EqualFunc(before[i].t, after[i].t, tuple.Equal) {
			t.Fatalf("run mutated at %d", i)
		}
	}
}

// TestMergeAggSingleFoldMatchesLegacy pins the single-code-path
// contract replacing the old per-group recompute: folding records one
// at a time through mergeAgg and finalizing must equal the direct
// whole-group computation for every aggregate.
func TestMergeAggSingleFold(t *testing.T) {
	vals := []int64{5, -3, 12, 0, 7, -3}
	cases := []struct {
		fn   string
		want tuple.Value
	}{
		{"count", tuple.Int(6)},
		{"sum", tuple.Int(18)},
		{"avg", tuple.Int(3)},
		{"min", tuple.Int(-3)},
		{"max", tuple.Int(12)},
	}
	for _, tc := range cases {
		agg := &pig.Aggregate{Func: tc.fn, ColIdx: 0}
		var whole aggAcc
		for _, v := range vals {
			mergeAgg(agg, &whole, 1, tuple.Int(v))
		}
		// Split the fold at every point and merge the two partials.
		for cut := 0; cut <= len(vals); cut++ {
			var a, b aggAcc
			for _, v := range vals[:cut] {
				mergeAgg(agg, &a, 1, tuple.Int(v))
			}
			for _, v := range vals[cut:] {
				mergeAgg(agg, &b, 1, tuple.Int(v))
			}
			var m aggAcc
			if a.n > 0 {
				mergeAgg(agg, &m, a.n, a.v)
			}
			if b.n > 0 {
				mergeAgg(agg, &m, b.n, b.v)
			}
			got := finalizeAgg(agg, m)
			if tuple.Compare(got, tc.want) != 0 || tuple.Compare(got, finalizeAgg(agg, whole)) != 0 {
				t.Errorf("%s cut=%d: merged=%v whole=%v want=%v",
					tc.fn, cut, got, finalizeAgg(agg, whole), tc.want)
			}
		}
	}
}
