package mapred

import (
	"fmt"
	"reflect"
	"testing"
)

// Complex plan shapes exercised end to end with expected results.

func TestRunJoinOfAggregates(t *testing.T) {
	// Join two separately aggregated relations: three jobs (two
	// aggregations materialize, the join consumes both).
	tr := run(t, `
sales = LOAD 'sales' AS (store, amount:int);
visits = LOAD 'visits' AS (store, n:int);
gs = GROUP sales BY store;
totals = FOREACH gs GENERATE group AS store, SUM(sales.amount) AS total;
gv = GROUP visits BY store;
traffic = FOREACH gv GENERATE group AS store, SUM(visits.n) AS hits;
j = JOIN totals BY store, traffic BY store;
rates = FOREACH j GENERATE totals::store AS store, total / hits AS per_visit;
STORE rates INTO 'out';
`, map[string][]string{
		"sales":  {"a\t100", "a\t50", "b\t90"},
		"visits": {"a\t3", "b\t2", "c\t9"},
	}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "out")
	want := []string{"a\t50", "b\t45"} // c has no sales: inner join drops it
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rates = %v, want %v", got, want)
	}
	if len(tr.jobs) != 3 {
		t.Errorf("jobs = %d, want 3", len(tr.jobs))
	}
}

func TestRunFilterAfterJoinReduceSide(t *testing.T) {
	tr := run(t, `
a = LOAD 'l' AS (k, x:int);
b = LOAD 'r' AS (k, y:int);
j = JOIN a BY k, b BY k;
big = FILTER j BY x + y > 10;
p = FOREACH big GENERATE a::k AS k, x + y AS s;
STORE p INTO 'out';
`, map[string][]string{
		"l": {"p\t4", "q\t9"},
		"r": {"p\t5", "q\t7"},
	}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	want := []string{"q\t16"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered join = %v, want %v", got, want)
	}
	// Filter and projection run reduce-side of the join job.
	j := tr.jobs[0]
	kinds := []PhysKind{}
	for _, op := range j.Reduce.PostOps {
		kinds = append(kinds, op.Kind)
	}
	if !reflect.DeepEqual(kinds, []PhysKind{PhysFilter, PhysProject}) {
		t.Errorf("post ops = %v", kinds)
	}
}

func TestRunNestedUnions(t *testing.T) {
	tr := run(t, `
a = LOAD 'a' AS (k);
b = LOAD 'b' AS (k);
c = LOAD 'c' AS (k);
u1 = UNION a, b;
u2 = UNION u1, c;
d = DISTINCT u2;
STORE d INTO 'out';
`, map[string][]string{
		"a": {"x", "y"},
		"b": {"y", "z"},
		"c": {"z", "w"},
	}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "out")
	want := []string{"w", "x", "y", "z"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nested union distinct = %v, want %v", got, want)
	}
	if len(tr.jobs[0].Inputs) != 3 {
		t.Errorf("inputs = %d, want 3 flattened union branches", len(tr.jobs[0].Inputs))
	}
}

func TestRunSelfJoinFanOut(t *testing.T) {
	// A key joining m x n rows must emit the full cross product.
	tr := run(t, `
a = LOAD 'e' AS (u, v);
b = LOAD 'e' AS (u, v);
j = JOIN a BY u, b BY u;
p = FOREACH j GENERATE a::v, b::v;
STORE p INTO 'out';
`, map[string][]string{"e": {"k\t1", "k\t2"}}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	want := []string{"1\t1", "1\t2", "2\t1", "2\t2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cross product = %v, want %v", got, want)
	}
}

func TestRunDeepChainManyJobs(t *testing.T) {
	// Four chained shuffles: group -> distinct -> group -> order.
	tr := run(t, `
a = LOAD 'x' AS (k, v:int);
g1 = GROUP a BY k;
s = FOREACH g1 GENERATE group AS k, SUM(a.v) AS t;
d = DISTINCT s;
g2 = GROUP d BY t;
c = FOREACH g2 GENERATE group AS t, COUNT(d) AS n;
o = ORDER c BY t DESC;
STORE o INTO 'out';
`, map[string][]string{
		"x": {"a\t1", "a\t2", "b\t3", "c\t3"},
	}, CompileOptions{NumReduces: 2}, nil)
	lines, err := tr.fs.ReadTree("out")
	if err != nil {
		t.Fatal(err)
	}
	// sums: a=3, b=3, c=3 -> distinct rows (a,3),(b,3),(c,3) -> group by
	// t: (3,3) -> ordered desc.
	want := []string{"3\t3"}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("deep chain = %v, want %v", lines, want)
	}
	if len(tr.jobs) != 4 {
		t.Errorf("jobs = %d, want 4", len(tr.jobs))
	}
}

func TestRunMultiKeyJoinEndToEnd(t *testing.T) {
	tr := run(t, `
a = LOAD 'l' AS (k1, k2, x);
b = LOAD 'r' AS (k1, k2, y);
j = JOIN a BY (k1, k2), b BY (k1, k2);
p = FOREACH j GENERATE a::x, b::y;
STORE p INTO 'out';
`, map[string][]string{
		"l": {"1\tA\tfoo", "1\tB\tbar"},
		"r": {"1\tA\tbaz", "2\tA\tqux"},
	}, CompileOptions{NumReduces: 2}, nil)
	got := tr.output(t, "out")
	want := []string{"foo\tbaz"} // only (1,A) matches on both keys
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-key join = %v, want %v", got, want)
	}
}

func TestRunProjectionExpressions(t *testing.T) {
	tr := run(t, `
a = LOAD 'x' AS (name, score:int);
p = FOREACH a GENERATE UPPER(name) AS n, score * 2 + 1 AS s, CONCAT(name, '!') AS bang;
STORE p INTO 'out';
`, map[string][]string{"x": {"ann\t10", "bob\t20"}}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	want := []string{"ANN\t21\tann!", "BOB\t41\tbob!"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("projection = %v, want %v", got, want)
	}
}

func TestRunManySplitsDeterministicReduceOrder(t *testing.T) {
	// 5 map splits feeding 3 reduce partitions: reduce input order is
	// the map ordinal order, so repeated runs agree byte for byte.
	var lines []string
	for i := 0; i < 50000; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%997, i))
	}
	in := map[string][]string{"in/edges": lines}
	opts := CompileOptions{NumReduces: 3}
	a := run(t, followerSrc, in, opts, nil)
	b := run(t, followerSrc, in, opts, nil)
	la, _ := a.fs.ReadTree("out/counts")
	lb, _ := b.fs.ReadTree("out/counts")
	if !reflect.DeepEqual(la, lb) {
		t.Fatal("multi-split run not deterministic")
	}
	if a.eng.Metrics.MapTasks < 5 {
		t.Errorf("map tasks = %d, want >= 5", a.eng.Metrics.MapTasks)
	}
}

func TestRunEmptyJoinSide(t *testing.T) {
	tr := run(t, `
a = LOAD 'l' AS (k, x);
b = LOAD 'r' AS (k, y);
j = JOIN a BY k, b BY k;
STORE j INTO 'out';
`, map[string][]string{"l": {"p\t1"}, "r": {}}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	if len(got) != 0 {
		t.Errorf("join with empty side = %v, want empty", got)
	}
	if !idle(tr.eng) {
		t.Error("engine should complete")
	}
}

func TestRunAggregateOverQualifiedGroupKey(t *testing.T) {
	// Group key re-referenced with arithmetic over "group".
	tr := run(t, `
a = LOAD 'x' AS (k:int, v:int);
g = GROUP a BY k;
c = FOREACH g GENERATE group * 10 AS decade, COUNT(a) AS n;
STORE c INTO 'out';
`, map[string][]string{"x": {"1\t5", "1\t6", "2\t7"}}, CompileOptions{}, nil)
	got := tr.output(t, "out")
	want := []string{"10\t2", "20\t1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("group expr = %v, want %v", got, want)
	}
}
