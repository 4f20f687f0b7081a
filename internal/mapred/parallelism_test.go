package mapred

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/pig"
)

// Parallelism invariance: a script's result set must not depend on the
// reduce-task count, split size, or cluster geometry — only the record
// multiset matters. This is the correctness property that makes replica
// digest comparison meaningful when all replicas share one configuration,
// and it guards the partitioner/merger against dropping or duplicating
// records.

func sortedOutput(t *testing.T, script string, inputs map[string][]string, opts CompileOptions, nodes, slots, split int) []string {
	t.Helper()
	tr := runWithGeometry(t, script, inputs, opts, nodes, slots, split)
	lines := []string{}
	for _, store := range storePaths(tr) {
		out, err := tr.fs.ReadTree(store)
		if err != nil {
			t.Fatalf("read %s: %v", store, err)
		}
		for _, l := range out {
			lines = append(lines, store+"|"+l)
		}
	}
	sort.Strings(lines)
	return lines
}

func storePaths(tr *testRun) []string {
	var out []string
	for _, v := range tr.plan.Stores() {
		out = append(out, v.Path)
	}
	sort.Strings(out)
	return out
}

// runWithGeometry executes a script on an explicit cluster geometry and
// split size.
func runWithGeometry(t *testing.T, script string, inputs map[string][]string, opts CompileOptions, nodes, slots, split int) *testRun {
	t.Helper()
	fs := dfs.NewWith(dfs.Options{})
	for path, lines := range inputs {
		fs.Append(path, lines...)
	}
	p, err := pig.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Compile(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultCostModel()
	cost.SplitRecords = split
	eng := NewEngine(fs, cluster.New(nodes, slots), nil, cost)
	tr := &testRun{fs: fs, eng: eng, plan: p, jobs: jobs}
	for _, j := range jobs {
		if _, err := eng.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for _, j := range jobs {
		if !eng.Job(j.ID).Done {
			t.Fatalf("job %s incomplete", j.ID)
		}
	}
	return tr
}

func TestOutputInvariantUnderReduceCount(t *testing.T) {
	inputs := map[string][]string{"in/edges": geomEdges(8000)}
	var ref []string
	for _, reduces := range []int{1, 2, 3, 5} {
		got := sortedOutput(t, followerSrc, inputs, CompileOptions{NumReduces: reduces}, 4, 2, 10000)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("output differs at NumReduces=%d", reduces)
		}
	}
	if len(ref) == 0 {
		t.Fatal("empty reference output")
	}
}

func TestOutputInvariantUnderSplitSize(t *testing.T) {
	inputs := map[string][]string{"in/edges": geomEdges(8000)}
	var ref []string
	for _, split := range []int{500, 1_000, 10_000, 100_000} {
		got := sortedOutput(t, followerSrc, inputs, CompileOptions{NumReduces: 2}, 4, 2, split)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("output differs at SplitRecords=%d", split)
		}
	}
}

func TestOutputInvariantUnderClusterGeometry(t *testing.T) {
	inputs := map[string][]string{"in/edges": geomEdges(8000)}
	var ref []string
	for _, geom := range [][2]int{{1, 1}, {2, 3}, {8, 2}, {16, 4}} {
		got := sortedOutput(t, followerSrc, inputs, CompileOptions{NumReduces: 2}, geom[0], geom[1], 2000)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("output differs at geometry %v", geom)
		}
	}
}

func TestJoinInvariantUnderReduceCount(t *testing.T) {
	script := `
a = LOAD 'e' AS (u:int, f:int);
b = LOAD 'e' AS (u:int, f:int);
j = JOIN a BY f, b BY u;
p = FOREACH j GENERATE a::u, b::f;
STORE p INTO 'out/pairs';
`
	inputs := map[string][]string{"e": geomEdges(1500)}
	var ref []string
	for _, reduces := range []int{1, 2, 4} {
		got := sortedOutput(t, script, inputs, CompileOptions{NumReduces: reduces}, 4, 2, 10000)
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("join output differs at NumReduces=%d", reduces)
		}
	}
	if len(ref) == 0 {
		t.Fatal("join produced nothing")
	}
}

func geomEdges(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d\t%d", (i*31)%97, (i*17)%97)
	}
	return out
}
