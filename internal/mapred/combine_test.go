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
		total += len(part)
		if !slices.IsSortedFunc(part, func(a, b interRec) int {
			return strings.Compare(a.keyStr, b.keyStr)
		}) {
			t.Error("partition not key-sorted")
		}
		for _, r := range part {
			if p := partitionOf(r.keyStr, job.NumReduces); p != pi {
				t.Errorf("key %q combined into partition %d, partitionOf says %d", r.keyStr, pi, p)
			}
		}
	}
	if total != 16 {
		t.Errorf("emitted records=%d, want 16", total)
	}
}

// TestPartitionOfBytesMatchesString: the byte and string variants of the
// partition hash must agree on every key, or combined and uncombined
// records of one key would land on different reduce tasks.
func TestPartitionOfBytesMatchesString(t *testing.T) {
	keys := []string{"", "a", "st-7", "12\t34", "\x00\xff", "longer-key-with-more-bytes"}
	for _, k := range keys {
		for _, n := range []int{1, 2, 3, 16} {
			if partitionOf(k, n) != partitionOfBytes([]byte(k), n) {
				t.Errorf("partition mismatch for %q n=%d", k, n)
			}
		}
	}
}

// TestMergeRunsMatchesReferenceSort: the loser-tree merge over sorted
// runs must emit exactly the (cmp, run, position) order a global stable
// sort of the tagged concatenation produces.
func TestMergeRunsMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(6)
		runs := make([][]interRec, k)
		type tagged struct {
			rec      interRec
			run, pos int
		}
		var all []tagged
		for r := range runs {
			n := rng.Intn(8)
			recs := make([]interRec, n)
			for i := range recs {
				recs[i] = interRec{keyStr: fmt.Sprintf("k%02d", rng.Intn(5))}
			}
			slices.SortStableFunc(recs, func(a, b interRec) int {
				return strings.Compare(a.keyStr, b.keyStr)
			})
			runs[r] = recs
			for i, rec := range recs {
				all = append(all, tagged{rec: rec, run: r, pos: i})
			}
		}
		slices.SortStableFunc(all, func(a, b tagged) int {
			if c := strings.Compare(a.rec.keyStr, b.rec.keyStr); c != 0 {
				return c
			}
			if c := a.run - b.run; c != 0 {
				return c
			}
			return a.pos - b.pos
		})
		var got []string
		cmp := func(a, b *interRec) int { return strings.Compare(a.keyStr, b.keyStr) }
		mergeRuns(runs, cmp, func(r *interRec) { got = append(got, r.keyStr) }, new(taskScratch))
		want := make([]string, len(all))
		for i, a := range all {
			want[i] = a.rec.keyStr
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge order %v, want %v (runs %v)", trial, got, want, runs)
		}
	}
}

// TestMergeRunsNilCmpConcatenates: a nil comparator (bare-LIMIT
// pass-through jobs) must emit runs whole, in run order.
func TestMergeRunsNilCmp(t *testing.T) {
	runs := [][]interRec{
		{{keyStr: "z"}, {keyStr: "a"}},
		{},
		{{keyStr: "m"}},
	}
	var got []string
	mergeRuns(runs, nil, func(r *interRec) { got = append(got, r.keyStr) }, new(taskScratch))
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
	out := runMapTask(job, 0, heldLines(t, lines), 0, len(lines), nil, nil, taskObs{}, new(taskScratch))
	runs := [][]interRec{out.partitions[0]}
	before := make([]interRec, len(runs[0]))
	copy(before, runs[0])
	_ = runReduceTask(job, runs, nil, taskObs{}, new(taskScratch))
	for i := range before {
		if before[i].keyStr != runs[0][i].keyStr || !tuple.EqualTuples(before[i].t, runs[0][i].t) {
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
