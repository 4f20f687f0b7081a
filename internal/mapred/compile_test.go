package mapred

import (
	"strings"
	"testing"

	"clusterbft/internal/pig"
)

func plan(t *testing.T, src string) *pig.Plan {
	t.Helper()
	p, err := pig.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func compile(t *testing.T, src string, opts CompileOptions) []*JobSpec {
	t.Helper()
	jobs, err := Compile(plan(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

const followerSrc = `
edges = LOAD 'in/edges' AS (user:int, follower:int);
ne = FILTER edges BY follower != 0;
g = GROUP ne BY user;
counts = FOREACH g GENERATE group AS user, COUNT(ne) AS n;
STORE counts INTO 'out/counts';
`

func TestCompileSingleShuffleJob(t *testing.T) {
	jobs := compile(t, followerSrc, CompileOptions{NumReduces: 3})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1:\n%v", len(jobs), jobs)
	}
	j := jobs[0]
	if j.Reduce == nil || j.Reduce.Kind != ReduceAggregate {
		t.Fatalf("reduce = %+v", j.Reduce)
	}
	if j.NumReduces != 3 {
		t.Errorf("NumReduces = %d", j.NumReduces)
	}
	if len(j.Inputs) != 1 || j.Inputs[0].Path != "in/edges" {
		t.Fatalf("inputs = %+v", j.Inputs)
	}
	in := j.Inputs[0]
	if len(in.Ops) != 1 || in.Ops[0].Kind != PhysFilter {
		t.Errorf("map ops = %+v", in.Ops)
	}
	if len(in.KeyCols) != 1 || in.KeyCols[0] != 0 {
		t.Errorf("key cols = %v", in.KeyCols)
	}
	if j.Output != "out/counts" || !j.Final {
		t.Errorf("output = %q final=%v", j.Output, j.Final)
	}
	if len(j.Reduce.Gens) != 2 {
		t.Errorf("gens = %d", len(j.Reduce.Gens))
	}
}

func TestCompileMapOnly(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (u:int, v:int);
f = FILTER a BY v > 2;
p = FOREACH f GENERATE u + v AS s;
STORE p INTO 'o';
`, CompileOptions{})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Reduce != nil {
		t.Error("map-only job should have no reduce")
	}
	if len(j.Inputs[0].Ops) != 2 {
		t.Errorf("ops = %+v", j.Inputs[0].Ops)
	}
	if j.Inputs[0].KeyCols != nil {
		t.Error("map-only input must have nil key cols")
	}
}

func TestCompileChainedShuffles(t *testing.T) {
	jobs := compile(t, `
w = LOAD 'weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
g2 = GROUP avgs BY a;
counts = FOREACH g2 GENERATE group AS a, COUNT(avgs) AS n;
STORE counts INTO 'out';
`, CompileOptions{})
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	first, second := jobs[0], jobs[1]
	if first.Final || !second.Final {
		t.Error("finality misassigned")
	}
	if second.Inputs[0].Path != first.Output {
		t.Errorf("chain: second reads %q, first writes %q", second.Inputs[0].Path, first.Output)
	}
	if len(second.Deps) != 1 || second.Deps[0] != first.ID {
		t.Errorf("deps = %v", second.Deps)
	}
	if !strings.HasPrefix(first.Output, "tmp/") {
		t.Errorf("intermediate output = %q", first.Output)
	}
}

func TestCompileJoin(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'e' AS (u:int, f:int);
b = LOAD 'e' AS (u:int, f:int);
j = JOIN a BY u, b BY f;
p = FOREACH j GENERATE a::f, b::u;
STORE p INTO 'o';
`, CompileOptions{NumReduces: 2})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Reduce.Kind != ReduceJoin {
		t.Fatalf("kind = %v", j.Reduce.Kind)
	}
	if len(j.Inputs) != 2 {
		t.Fatalf("inputs = %d", len(j.Inputs))
	}
	if j.Inputs[0].Tag != 0 || j.Inputs[1].Tag != 1 {
		t.Errorf("tags = %d,%d", j.Inputs[0].Tag, j.Inputs[1].Tag)
	}
	if j.Inputs[0].KeyCols[0] != 0 || j.Inputs[1].KeyCols[0] != 1 {
		t.Errorf("key cols = %v,%v", j.Inputs[0].KeyCols, j.Inputs[1].KeyCols)
	}
	// Post-join projection runs reduce-side.
	if len(j.Reduce.PostOps) != 1 || j.Reduce.PostOps[0].Kind != PhysProject {
		t.Errorf("post ops = %+v", j.Reduce.PostOps)
	}
}

func TestCompileOrderLimitSingleReduce(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (k, n:int);
o = ORDER a BY n DESC;
top = LIMIT o 5;
STORE top INTO 'o';
`, CompileOptions{NumReduces: 8})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Reduce.Kind != ReduceSort || j.NumReduces != 1 {
		t.Errorf("sort job: kind=%v reduces=%d", j.Reduce.Kind, j.NumReduces)
	}
	if len(j.Reduce.PostOps) != 1 || j.Reduce.PostOps[0].Kind != PhysLimit || j.Reduce.PostOps[0].Limit != 5 {
		t.Errorf("post ops = %+v", j.Reduce.PostOps)
	}
}

func TestCompileBareLimitBecomesSingleReducePass(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (k);
f = FILTER a BY k != 'z';
top = LIMIT f 3;
STORE top INTO 'o';
`, CompileOptions{NumReduces: 4})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if j.Reduce == nil || j.Reduce.Kind != ReduceSort || j.NumReduces != 1 {
		t.Fatalf("bare limit job = %+v", j)
	}
	if len(j.Inputs[0].Ops) != 1 || j.Inputs[0].Ops[0].Kind != PhysFilter {
		t.Errorf("pre-limit map ops = %+v", j.Inputs[0].Ops)
	}
	if j.Inputs[0].KeyCols == nil || len(j.Inputs[0].KeyCols) != 0 {
		t.Errorf("constant key expected, got %v", j.Inputs[0].KeyCols)
	}
}

func TestCompileUnionFlattens(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (k, v:int);
b = LOAD 'y' AS (k, v:int);
u = UNION a, b;
g = GROUP u BY k;
s = FOREACH g GENERATE group, SUM(u.v);
STORE s INTO 'o';
`, CompileOptions{})
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	j := jobs[0]
	if len(j.Inputs) != 2 {
		t.Fatalf("union inputs = %d", len(j.Inputs))
	}
	if j.Inputs[0].Path != "x" || j.Inputs[1].Path != "y" {
		t.Errorf("paths = %q,%q", j.Inputs[0].Path, j.Inputs[1].Path)
	}
}

func TestCompileSharedVertexMaterializesOnce(t *testing.T) {
	// The airline pattern: one grouped count consumed by two stores.
	jobs := compile(t, `
fl = LOAD 'flights' AS (org, dst);
g = GROUP fl BY org;
c = FOREACH g GENERATE group AS org, COUNT(fl) AS n;
o1 = ORDER c BY n DESC;
t1 = LIMIT o1 20;
STORE t1 INTO 'out/top';
STORE c INTO 'out/all';
`, CompileOptions{})
	// Jobs: aggregate (materializes c), order+limit, identity publish.
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d:\n%v", len(jobs), jobs)
	}
	mat := 0
	for _, j := range jobs {
		if strings.HasPrefix(j.Output, "tmp/") {
			mat++
		}
	}
	if mat != 1 {
		t.Errorf("materialized %d temps, want 1", mat)
	}
}

func TestCompileDistinct(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (k, v);
d = DISTINCT a;
STORE d INTO 'o';
`, CompileOptions{NumReduces: 2})
	j := jobs[0]
	if j.Reduce.Kind != ReduceDistinct {
		t.Fatalf("kind = %v", j.Reduce.Kind)
	}
	if len(j.Inputs[0].KeyCols) != 2 {
		t.Errorf("distinct key = %v", j.Inputs[0].KeyCols)
	}
}

func TestCompileGroupAllSingleReduce(t *testing.T) {
	jobs := compile(t, `
a = LOAD 'x' AS (v:int);
g = GROUP a ALL;
c = FOREACH g GENERATE COUNT(a);
STORE c INTO 'o';
`, CompileOptions{NumReduces: 4})
	j := jobs[0]
	if j.NumReduces != 1 {
		t.Errorf("GROUP ALL reduces = %d, want 1", j.NumReduces)
	}
	if len(j.Inputs[0].KeyCols) != 0 || j.Inputs[0].KeyCols == nil {
		t.Errorf("constant key expected, got %v", j.Inputs[0].KeyCols)
	}
}

func TestCompileDigestPoints(t *testing.T) {
	p := plan(t, followerSrc)
	filterID := p.ByAlias("ne").ID
	groupID := p.ByAlias("g").ID
	feID := p.ByAlias("counts").ID
	jobs, err := Compile(p, CompileOptions{Points: []int{filterID, groupID, feID}})
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	pts := j.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	// Filter and group digests sit map-side; the FOREACH digest reduce-side.
	mapDigests := 0
	for _, op := range j.Inputs[0].Ops {
		if op.Kind == PhysDigest {
			mapDigests++
		}
	}
	if mapDigests != 2 {
		t.Errorf("map-side digests = %d, want 2 (filter + group)", mapDigests)
	}
	redDigests := 0
	for _, op := range j.Reduce.PostOps {
		if op.Kind == PhysDigest {
			redDigests++
		}
	}
	if redDigests != 1 {
		t.Errorf("reduce-side digests = %d, want 1 (foreach)", redDigests)
	}
}

func TestCompileLoadPoint(t *testing.T) {
	p := plan(t, followerSrc)
	loadID := p.ByAlias("edges").ID
	jobs, err := Compile(p, CompileOptions{Points: []int{loadID}})
	if err != nil {
		t.Fatal(err)
	}
	ops := jobs[0].Inputs[0].Ops
	if len(ops) == 0 || ops[0].Kind != PhysDigest {
		t.Errorf("load digest should be first map op, ops = %+v", ops)
	}
}

func TestCompileJoinPointReduceSide(t *testing.T) {
	p := plan(t, `
a = LOAD 'e' AS (u:int, f:int);
b = LOAD 'e' AS (u:int, f:int);
j = JOIN a BY u, b BY f;
p2 = FOREACH j GENERATE a::f, b::u;
STORE p2 INTO 'o';
`)
	jid := p.ByAlias("j").ID
	jobs, err := Compile(p, CompileOptions{Points: []int{jid}})
	if err != nil {
		t.Fatal(err)
	}
	post := jobs[0].Reduce.PostOps
	if len(post) < 1 || post[0].Kind != PhysDigest {
		t.Errorf("join digest should lead post ops: %+v", post)
	}
}

func TestCompileDeterministic(t *testing.T) {
	a := compile(t, followerSrc, CompileOptions{NumReduces: 2})
	b := compile(t, followerSrc, CompileOptions{NumReduces: 2})
	if len(a) != len(b) {
		t.Fatal("job counts differ across compilations")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("job %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestJobSpecClone(t *testing.T) {
	jobs := compile(t, followerSrc, CompileOptions{})
	orig := jobs[0]
	c := orig.Clone()
	c.Inputs[0].Path = "mutated"
	c.Inputs[0].KeyCols[0] = 99
	c.Reduce.PostOps = append(c.Reduce.PostOps, Op{Kind: PhysLimit})
	if orig.Inputs[0].Path == "mutated" {
		t.Error("clone aliases input path")
	}
	if orig.Inputs[0].KeyCols[0] == 99 {
		t.Error("clone aliases key cols")
	}
}

func TestTaskIDStableAcrossReplicas(t *testing.T) {
	js1 := &JobState{Spec: &JobSpec{ID: "a", Replica: 0}}
	js2 := &JobState{Spec: &JobSpec{ID: "b", Replica: 1}}
	t1 := js1.newTask(MapTask, 1, 4)
	t2 := js2.newTask(MapTask, 1, 4)
	if t1.ID() != t2.ID() || t1.ID() != "m1-004" {
		t.Errorf("task IDs differ: %q vs %q, want m1-004", t1.ID(), t2.ID())
	}
	r := js1.newTask(ReduceTask, 0, 2)
	if r.ID() != "r002" {
		t.Errorf("reduce id = %q", r.ID())
	}
	// The constructor hands out ordinals in creation order and the job
	// owns what it made.
	if t1.ord != 0 || r.ord != 1 || len(js1.tasks) != 2 || js1.tasks[1] != r || r.Job != js1 {
		t.Errorf("ordinals: map %d, reduce %d, job holds %d tasks", t1.ord, r.ord, len(js1.tasks))
	}
	if got := js1.TaskIDs(); len(got) != 2 || got[0] != "m1-004" || got[1] != "r002" {
		t.Errorf("TaskIDs = %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	if PhysFilter.String() != "filter" || PhysDigest.String() != "digest" {
		t.Error("PhysKind names")
	}
	if ReduceAggregate.String() != "aggregate" || ReduceSort.String() != "sort" {
		t.Error("ReduceKind names")
	}
	if MapTask.String() != "map" || ReduceTask.String() != "reduce" {
		t.Error("TaskKind names")
	}
}
