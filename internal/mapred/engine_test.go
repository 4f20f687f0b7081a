package mapred

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
)

// testRun executes a script on a fresh engine and returns the engine and
// the sorted lines of each STORE output.
type testRun struct {
	fs      *dfs.FS
	eng     *Engine
	plan    *pig.Plan
	jobs    []*JobSpec
	reports []digest.Report
}

func run(t *testing.T, script string, inputs map[string][]string, opts CompileOptions, mutate func(*Engine)) *testRun {
	t.Helper()
	return runOn(t, dfs.New(), script, inputs, opts, mutate)
}

// uncombined clears Reduce.Combine on compiled specs and returns them:
// the un-combined shuffle path — the one non-algebraic aggregates, joins
// and sorts always run — as the test oracle for the combiner. Every
// "combine off" test and bench goes through here.
func uncombined(jobs ...*JobSpec) []*JobSpec {
	for _, j := range jobs {
		if j.Reduce != nil {
			j.Reduce.Combine = false
		}
	}
	return jobs
}

// runUncombined is run with the combiner cleared on every compiled job.
func runUncombined(t *testing.T, script string, inputs map[string][]string, opts CompileOptions, mutate func(*Engine)) *testRun {
	t.Helper()
	p := plan(t, script)
	return runJobs(t, dfs.New(), inputs, p, uncombined(compile(t, script, opts)...), mutate)
}

// runOn is run over a caller-built FS, so suites can exercise the same
// script on differently-configured block data planes (tiny blocks,
// spill budgets, compression).
func runOn(t *testing.T, fs *dfs.FS, script string, inputs map[string][]string, opts CompileOptions, mutate func(*Engine)) *testRun {
	t.Helper()
	return runJobs(t, fs, inputs, plan(t, script), compile(t, script, opts), mutate)
}

// runJobs loads inputs into fs and runs already-compiled jobs of plan p
// to completion on a fresh 4x2 cluster.
func runJobs(t *testing.T, fs *dfs.FS, inputs map[string][]string, p *pig.Plan, jobs []*JobSpec, mutate func(*Engine)) *testRun {
	t.Helper()
	for path, lines := range inputs {
		fs.Append(path, lines...)
	}
	cl := cluster.New(4, 2)
	eng := NewEngine(fs, cl, nil, DefaultCostModel())
	tr := &testRun{fs: fs, eng: eng, plan: p, jobs: jobs}
	eng.DigestSink = func(r digest.Report) { tr.reports = append(tr.reports, r) }
	if mutate != nil {
		mutate(eng)
	}
	for _, j := range jobs {
		if _, err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	return tr
}

func (tr *testRun) output(t *testing.T, path string) []string {
	t.Helper()
	lines, err := tr.fs.ReadTree(path)
	if err != nil {
		t.Fatalf("read output %s: %v", path, err)
	}
	sort.Strings(lines)
	return lines
}

func edges() []string {
	// user<TAB>follower
	return []string{
		"1\t2", "1\t3", "1\t0", // user 1: 2 real followers (0 filtered)
		"2\t1", "2\t3", "2\t4",
		"3\t1",
	}
}

func TestRunFollowerCount(t *testing.T) {
	tr := run(t, followerSrc, map[string][]string{"in/edges": edges()}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "out/counts")
	want := []string{"1\t2", "2\t3", "3\t1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	if !tr.eng.Idle() {
		t.Error("engine should be idle after run")
	}
}

func TestRunMapOnly(t *testing.T) {
	tr := run(t, `
a = LOAD 'x' AS (u:int, v:int);
f = FILTER a BY v > 10;
p = FOREACH f GENERATE u, u * v AS prod;
STORE p INTO 'o';
`, map[string][]string{"x": {"1\t5", "2\t20", "3\t30"}}, CompileOptions{}, nil)
	got := tr.output(t, "o")
	want := []string{"2\t40", "3\t90"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("out = %v, want %v", got, want)
	}
}

func TestRunJoinTwoHop(t *testing.T) {
	// Two-hop: J = JOIN A BY user, B BY follower pairs (follower-of-A,
	// user-of-B) two hops apart... here simply verify join semantics.
	tr := run(t, `
a = LOAD 'e' AS (u:int, f:int);
b = LOAD 'e' AS (u:int, f:int);
j = JOIN a BY u, b BY f;
p = FOREACH j GENERATE b::u AS src, a::f AS dst;
STORE p INTO 'o';
`, map[string][]string{"e": {"1\t2", "2\t3"}}, CompileOptions{}, nil)
	// a.u==b.f: (1,2)x(2,3): a=(1,2) matches b=(2,... wait b.f==1? no.
	// Pairs: a.u=2 joins b.f=2 -> b=(1,2),a=(2,3): src=1 dst=3.
	got := tr.output(t, "o")
	want := []string{"1\t3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two hop = %v, want %v", got, want)
	}
}

func TestRunOrderLimit(t *testing.T) {
	tr := run(t, `
a = LOAD 'x' AS (k, n:int);
o = ORDER a BY n DESC;
top = LIMIT o 2;
STORE top INTO 'out';
`, map[string][]string{"x": {"a\t5", "b\t9", "c\t7", "d\t1"}}, CompileOptions{}, nil)
	lines, err := tr.fs.ReadTree("out")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b\t9", "c\t7"} // order preserved in single reduce
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("top = %v, want %v", lines, want)
	}
}

func TestRunOrderAscendingAndTies(t *testing.T) {
	tr := run(t, `
a = LOAD 'x' AS (k, n:int);
o = ORDER a BY n, k DESC;
STORE o INTO 'out';
`, map[string][]string{"x": {"a\t2", "b\t1", "c\t2"}}, CompileOptions{}, nil)
	lines, _ := tr.fs.ReadTree("out")
	want := []string{"b\t1", "c\t2", "a\t2"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("order = %v, want %v", lines, want)
	}
}

func TestRunUnionDistinct(t *testing.T) {
	tr := run(t, `
a = LOAD 'x' AS (k);
b = LOAD 'y' AS (k);
u = UNION a, b;
d = DISTINCT u;
STORE d INTO 'out';
`, map[string][]string{"x": {"p", "q"}, "y": {"q", "r"}}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "out")
	want := []string{"p", "q", "r"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinct = %v, want %v", got, want)
	}
}

func TestRunGroupAllAndAvg(t *testing.T) {
	tr := run(t, `
w = LOAD 'temps' AS (st, temp:int);
g = GROUP w BY st;
avgs = FOREACH g GENERATE group AS st, AVG(w.temp) AS a, MIN(w.temp), MAX(w.temp), SUM(w.temp);
STORE avgs INTO 'out';
`, map[string][]string{"temps": {"s1\t10", "s1\t15", "s2\t7"}}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	// AVG is integer division: (10+15)/2 = 12.
	want := []string{"s1\t12\t10\t15\t25", "s2\t7\t7\t7\t7"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregates = %v, want %v", got, want)
	}
}

func TestRunMultiStoreShared(t *testing.T) {
	tr := run(t, `
fl = LOAD 'flights' AS (org, dst);
g = GROUP fl BY org;
c = FOREACH g GENERATE group AS org, COUNT(fl) AS n;
o = ORDER c BY n DESC;
top = LIMIT o 1;
STORE top INTO 'out/top';
STORE c INTO 'out/all';
`, map[string][]string{"flights": {"A\tB", "A\tC", "B\tC"}}, CompileOptions{}, nil)
	top := tr.output(t, "out/top")
	all := tr.output(t, "out/all")
	if !reflect.DeepEqual(top, []string{"A\t2"}) {
		t.Errorf("top = %v", top)
	}
	if !reflect.DeepEqual(all, []string{"A\t2", "B\t1"}) {
		t.Errorf("all = %v", all)
	}
}

func TestRunEmptyInput(t *testing.T) {
	tr := run(t, followerSrc, map[string][]string{"in/edges": {}}, CompileOptions{}, nil)
	if !tr.eng.Idle() {
		t.Fatal("job over empty input should complete")
	}
	got := tr.output(t, "out/counts")
	if len(got) != 0 {
		t.Errorf("output = %v, want empty", got)
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	opts := CompileOptions{NumReduces: 2}
	in := map[string][]string{"in/edges": edges()}
	a := run(t, followerSrc, in, opts, nil)
	b := run(t, followerSrc, in, opts, nil)
	if !reflect.DeepEqual(a.output(t, "out/counts"), b.output(t, "out/counts")) {
		t.Error("outputs differ across identical runs")
	}
	la := a.eng.Job(a.jobs[0].ID).Latency()
	lb := b.eng.Job(b.jobs[0].ID).Latency()
	if la != lb {
		t.Errorf("latencies differ: %d vs %d", la, lb)
	}
}

func digestPoints(t *testing.T, p *pig.Plan, aliases ...string) []int {
	t.Helper()
	var pts []int
	for _, a := range aliases {
		v := p.ByAlias(a)
		if v == nil {
			t.Fatalf("alias %q missing", a)
		}
		pts = append(pts, v.ID)
	}
	return pts
}

func TestRunDigestsEmitted(t *testing.T) {
	p, err := pig.Parse(followerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Points: digestPoints(t, p, "counts"), NumReduces: 2}
	tr := run(t, followerSrc, map[string][]string{"in/edges": edges()}, opts, nil)
	if len(tr.reports) == 0 {
		t.Fatal("no digest reports")
	}
	// One final report per reduce task.
	finals := 0
	for _, r := range tr.reports {
		if r.Final {
			finals++
		}
		if r.Key.Point != p.ByAlias("counts").ID {
			t.Errorf("unexpected point %d", r.Key.Point)
		}
	}
	if finals != 2 {
		t.Errorf("final digests = %d, want one per reduce task", finals)
	}
}

func TestRunReplicasProduceMatchingDigests(t *testing.T) {
	// Submit two replicas of the same job (distinct outputs) and check
	// digest agreement per (point, task, chunk).
	p, err := pig.Parse(followerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Points: digestPoints(t, p, "ne", "counts"), NumReduces: 2}
	fs := dfs.New()
	fs.Append("in/edges", edges()...)
	jobs, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(8, 2)
	eng := NewEngine(fs, cl, nil, DefaultCostModel())
	var reports []digest.Report
	eng.DigestSink = func(r digest.Report) { reports = append(reports, r) }
	for rep := 0; rep < 2; rep++ {
		j := jobs[0].Clone()
		j.ID = fmt.Sprintf("r%d-%s", rep, j.ID)
		j.SID = "sid-1"
		j.Replica = rep
		j.Output = fmt.Sprintf("rep%d/out", rep)
		if _, err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	byKey := make(map[digest.Key]map[int]digest.Sum)
	for _, r := range reports {
		if byKey[r.Key] == nil {
			byKey[r.Key] = make(map[int]digest.Sum)
		}
		byKey[r.Key][r.Replica] = r.Sum
	}
	if len(byKey) == 0 {
		t.Fatal("no digests")
	}
	for k, sums := range byKey {
		if len(sums) != 2 {
			t.Errorf("key %v has %d replicas", k, len(sums))
			continue
		}
		if sums[0] != sums[1] {
			t.Errorf("replica digests differ at %v", k)
		}
	}
	// And the replica outputs are identical.
	o0, _ := fs.ReadTree("rep0/out")
	o1, _ := fs.ReadTree("rep1/out")
	if !reflect.DeepEqual(o0, o1) {
		t.Error("replica outputs differ")
	}
}

func TestRunCommissionFaultChangesDigest(t *testing.T) {
	p, err := pig.Parse(followerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Points: digestPoints(t, p, "counts"), NumReduces: 1}
	honest := run(t, followerSrc, map[string][]string{"in/edges": edges()}, opts, nil)
	faulty := run(t, followerSrc, map[string][]string{"in/edges": edges()}, opts, func(e *Engine) {
		for _, n := range e.Cluster.Nodes() {
			n.Adversary = cluster.NewAdversary(cluster.FaultCommission, 1.0, 3)
		}
	})
	if len(honest.reports) == 0 || len(faulty.reports) == 0 {
		t.Fatal("missing digests")
	}
	hf := finalsByKey(honest.reports)
	ff := finalsByKey(faulty.reports)
	same := true
	for k, s := range hf {
		if fs, ok := ff[k]; ok && fs != s {
			same = false
		}
	}
	if same {
		t.Error("commission fault did not perturb any digest")
	}
}

func finalsByKey(reports []digest.Report) map[digest.Key]digest.Sum {
	out := make(map[digest.Key]digest.Sum)
	for _, r := range reports {
		out[r.Key] = r.Sum
	}
	return out
}

func TestRunOmissionHangsJob(t *testing.T) {
	tr := run(t, followerSrc, map[string][]string{"in/edges": edges()}, CompileOptions{}, func(e *Engine) {
		for _, n := range e.Cluster.Nodes() {
			n.Adversary = cluster.NewAdversary(cluster.FaultOmission, 1.0, 3)
		}
	})
	if tr.eng.Idle() {
		t.Fatal("omission faults everywhere should stall the job")
	}
	if tr.eng.Metrics.TasksHung == 0 {
		t.Error("hung tasks not counted")
	}
	js := tr.eng.Job(tr.jobs[0].ID)
	if js.Done {
		t.Error("job must not complete")
	}
}

func TestKillJobFreesSlots(t *testing.T) {
	fs := dfs.New()
	fs.Append("in/edges", edges()...)
	p, _ := pig.Parse(followerSrc)
	jobs, _ := Compile(p, CompileOptions{})
	cl := cluster.New(1, 1) // one slot: a hung task blocks everything
	if err := cl.SetAdversary("node-000", cluster.FaultOmission, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cl, nil, DefaultCostModel())
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Kill the job after it hangs, then run an honest job.
	eng.After(10_000_000, func() {
		if js.Done {
			t.Error("job finished despite omission")
		}
		eng.KillJob(jobs[0].ID)
		cl.Nodes()[0].Adversary = nil
		j2 := jobs[0].Clone()
		j2.ID = "retry"
		j2.Output = "out2"
		if _, err := eng.Submit(j2); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	retry := eng.Job("retry")
	if retry == nil || !retry.Done {
		t.Fatal("retry did not complete after kill freed the slot")
	}
	if !js.Killed {
		t.Error("killed flag unset")
	}
}

func TestReplicaExclusionConstraint(t *testing.T) {
	// Two replicas of one SID on a 2-node cluster: node sets must be
	// disjoint even across many tasks.
	fs := dfs.New()
	var lines []string
	for i := 0; i < 25000; i++ { // several splits
		lines = append(lines, fmt.Sprintf("%d\t%d", i%50, i))
	}
	fs.Append("in/edges", lines...)
	p, _ := pig.Parse(followerSrc)
	jobs, _ := Compile(p, CompileOptions{NumReduces: 2})
	cl := cluster.New(2, 4)
	eng := NewEngine(fs, cl, nil, DefaultCostModel())
	for rep := 0; rep < 2; rep++ {
		j := jobs[0].Clone()
		j.ID = fmt.Sprintf("rep%d", rep)
		j.SID = "s"
		j.Replica = rep
		j.Output = fmt.Sprintf("o%d", rep)
		if _, err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	j0, j1 := eng.Job("rep0"), eng.Job("rep1")
	if !j0.Done || !j1.Done {
		t.Fatal("jobs incomplete")
	}
	for n := range j0.Nodes {
		if j1.Nodes[n] {
			t.Errorf("node %s ran tasks of both replicas", n)
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	tr := run(t, followerSrc, map[string][]string{"in/edges": edges()}, CompileOptions{NumReduces: 2}, nil)
	m := tr.eng.Metrics
	if m.MapTasks == 0 || m.ReduceTasks != 2 {
		t.Errorf("tasks: %+v", m)
	}
	if m.RecordsIn != int64(len(edges())) {
		t.Errorf("RecordsIn = %d", m.RecordsIn)
	}
	if m.RecordsOut != 3 {
		t.Errorf("RecordsOut = %d", m.RecordsOut)
	}
	if m.HDFSBytesRead == 0 || m.HDFSBytesWritten == 0 {
		t.Error("HDFS byte counters empty")
	}
	if m.LocalBytesWritten == 0 || m.LocalBytesRead == 0 {
		t.Error("shuffle byte counters empty")
	}
	if m.CPUTimeUs == 0 || m.JobsCompleted != 1 {
		t.Errorf("cpu/jobs: %+v", m)
	}
	// No digests configured.
	if m.DigestRecords != 0 {
		t.Errorf("DigestRecords = %d", m.DigestRecords)
	}
}

func TestDigestCostIncreasesCPU(t *testing.T) {
	in := map[string][]string{"in/edges": edges()}
	plain := run(t, followerSrc, in, CompileOptions{}, nil)
	p, _ := pig.Parse(followerSrc)
	withDigest := run(t, followerSrc, in, CompileOptions{Points: digestPoints(t, p, "ne", "counts")}, nil)
	if withDigest.eng.Metrics.CPUTimeUs <= plain.eng.Metrics.CPUTimeUs {
		t.Errorf("digesting should cost CPU: %d vs %d",
			withDigest.eng.Metrics.CPUTimeUs, plain.eng.Metrics.CPUTimeUs)
	}
	if withDigest.eng.Metrics.DigestRecords == 0 {
		t.Error("digest records not counted")
	}
}

func TestSubmitErrors(t *testing.T) {
	fs := dfs.New()
	cl := cluster.New(1, 1)
	eng := NewEngine(fs, cl, nil, DefaultCostModel())
	spec := &JobSpec{ID: "a", Inputs: []JobInput{{Path: "x"}}, NumReduces: 1, Output: "o"}
	if _, err := eng.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(spec); err == nil {
		t.Error("duplicate submit should fail")
	}
	bad := &JobSpec{ID: "b", Deps: []string{"ghost"}, Inputs: []JobInput{{Path: "x"}}, NumReduces: 1, Output: "o2"}
	if _, err := eng.Submit(bad); err == nil {
		t.Error("unknown dep should fail")
	}
}

func TestAfterAndNow(t *testing.T) {
	eng := NewEngine(dfs.New(), cluster.New(1, 1), nil, DefaultCostModel())
	var times []int64
	eng.After(100, func() { times = append(times, eng.Now()) })
	eng.After(50, func() { times = append(times, eng.Now()) })
	eng.After(-5, func() { times = append(times, eng.Now()) })
	eng.Run()
	if !reflect.DeepEqual(times, []int64{0, 50, 100}) {
		t.Errorf("times = %v", times)
	}
}

func TestReplicatedLatencyOverheadIsModest(t *testing.T) {
	// The headline claim (§6.1): with enough nodes, running 4 replicas
	// with digests costs only a little extra latency over one replica,
	// because replicas execute in parallel.
	fs := dfs.New()
	var lines []string
	for i := 0; i < 30000; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%100, i%977))
	}
	fs.Append("in/edges", lines...)
	p, _ := pig.Parse(followerSrc)
	opts := CompileOptions{Points: digestPoints(t, p, "counts"), NumReduces: 2}
	jobs, _ := Compile(p, opts)

	single := NewEngine(dfsWith(lines), cluster.New(32, 3), nil, DefaultCostModel())
	j := jobs[0].Clone()
	j.Output = "single/out"
	if _, err := single.Submit(j); err != nil {
		t.Fatal(err)
	}
	single.Run()
	singleLat := single.Job(j.ID).Latency()

	bft := NewEngine(dfsWith(lines), cluster.New(32, 3), nil, DefaultCostModel())
	var latencies []int64
	for rep := 0; rep < 4; rep++ {
		jr := jobs[0].Clone()
		jr.ID = fmt.Sprintf("rep%d", rep)
		jr.SID = "s"
		jr.Replica = rep
		jr.Output = fmt.Sprintf("bft/out%d", rep)
		if _, err := bft.Submit(jr); err != nil {
			t.Fatal(err)
		}
	}
	bft.Run()
	for rep := 0; rep < 4; rep++ {
		js := bft.Job(fmt.Sprintf("rep%d", rep))
		if !js.Done {
			t.Fatal("replica incomplete")
		}
		latencies = append(latencies, js.Latency())
	}
	worst := latencies[0]
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	if float64(worst) > 1.6*float64(singleLat) {
		t.Errorf("replicated latency %d vs single %d: overhead too high", worst, singleLat)
	}
}

func dfsWith(lines []string) *dfs.FS {
	fs := dfs.New()
	fs.Append("in/edges", lines...)
	return fs
}

// TestSubmitFailsClosed: a spec Submit rejects leaves no trace — the job
// is not counted, not found by ID or by output directory, and the same
// ID submits cleanly once the spec is fixed.
func TestSubmitFailsClosed(t *testing.T) {
	jobs := compile(t, followerSrc, CompileOptions{NumReduces: 2})
	fs := dfs.New()
	fs.Append("in/edges", edges()...)
	eng := NewEngine(fs, cluster.New(4, 2), nil, DefaultCostModel())

	orphan := jobs[0].Clone()
	orphan.ID, orphan.Output = "orphan", "out/orphan"
	orphan.Deps = []string{"never-submitted"}
	badKind := jobs[0].Clone()
	badKind.ID, badKind.Output = "bad-kind", "out/bad-kind"
	badKind.Reduce.Kind = ReduceSort + 1
	// The two a task body would otherwise meet on a pool goroutine: an
	// integer divide by zero sizing partitions, and t[c] with c < 0.
	noParts := jobs[0].Clone()
	noParts.ID, noParts.Output = "no-parts", "out/no-parts"
	noParts.NumReduces = 0
	negKey := jobs[0].Clone()
	negKey.ID, negKey.Output = "neg-key", "out/neg-key"
	negKey.Inputs[0].KeyCols = []int{-1}
	for _, spec := range []*JobSpec{orphan, badKind, noParts, negKey} {
		if _, err := eng.Submit(spec); err == nil {
			t.Fatalf("Submit(%s) succeeded, want an error", spec.ID)
		}
		if eng.JobCount() != 0 || eng.Job(spec.ID) != nil || eng.JobByOutput(spec.Output) != nil {
			t.Errorf("failed Submit(%s) left state behind: JobCount=%d Job=%v JobByOutput=%v",
				spec.ID, eng.JobCount(), eng.Job(spec.ID), eng.JobByOutput(spec.Output))
		}
	}
	orphan.Deps = nil
	js, err := eng.Submit(orphan)
	if err != nil {
		t.Fatalf("resubmit after fixing the spec: %v", err)
	}
	eng.Run()
	if !js.Done || eng.JobCount() != 1 {
		t.Errorf("fixed spec: Done=%v JobCount=%d, want true and 1", js.Done, eng.JobCount())
	}
}
