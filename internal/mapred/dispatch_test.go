package mapred

import (
	"fmt"
	"runtime"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
)

// Dispatch allocation pins. A task's identity is formatted once, when its
// job makes it, and its attempt state lives on the task, so answering a
// slot's probe — every ready task checked against the node — allocates
// nothing, however many replicas, slots and ready tasks there are.

var idSink string

func TestTaskIDAllocs(t *testing.T) {
	tk := (&JobState{Spec: &JobSpec{ID: "j"}}).newTask(MapTask, 0, 7)
	if got := testing.AllocsPerRun(200, func() { idSink = tk.ID() }); got != 0 {
		t.Errorf("Task.ID allocates %v times, want 0", got)
	}
}

// dispatchFixture builds an engine over nodes one-slot nodes with two
// jobs of one-record splits submitted: placeable map tasks of sid "a",
// and blocked ones of sid "b" replica 1, which every node is already
// bound to replica 0 of — they stay on the ready queue and are probed by
// every free slot.
func dispatchFixture(t *testing.T, nodes, placeable, blocked int) *Engine {
	t.Helper()
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New()
	cost := DefaultCostModel()
	cost.SplitRecords = 1
	eng := NewEngine(fs, cluster.New(nodes, 1), nil, cost)
	eng.Workers = 1 // one scratch, so body allocations do not depend on scheduling
	for _, n := range eng.Cluster.Nodes() {
		eng.sidBinding[n.ID] = map[string]int{"b": 0}
	}
	for _, j := range []struct {
		sid     string
		replica int
		splits  int
	}{{"b", 1, blocked}, {"a", 0, placeable}} {
		lines := make([]string, j.splits)
		for i := range lines {
			lines[i] = fmt.Sprintf("%d\t%d", i, i+1)
		}
		fs.Append("in/"+j.sid, lines...)
		spec := jobs[0].Clone()
		spec.ID, spec.SID, spec.Replica = j.sid+"/j0", j.sid, j.replica
		spec.Inputs[0].Path, spec.Output = "in/"+j.sid, "out/"+j.sid
		if _, err := eng.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestLegalTasksWarmAllocs: once the candidate slice has grown to the
// ready queue, a probe over 200 ready tasks allocates nothing.
func TestLegalTasksWarmAllocs(t *testing.T) {
	eng := dispatchFixture(t, 2, 100, 100)
	node := eng.Cluster.Nodes()[0]
	if got := len(eng.ready); got != 200 {
		t.Fatalf("ready queue holds %d tasks, want 200", got)
	}
	if got := len(eng.legalTasks(node)); got != 100 {
		t.Fatalf("legalTasks offers %d tasks, want the 100 unblocked ones", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = eng.legalTasks(node) }); got != 0 {
		t.Errorf("a warm legalTasks scan over 200 ready tasks allocates %v times, want 0", got)
	}
}

// TestDispatchAllocs: one heartbeat placing K ready tasks allocates per
// placed attempt (its record, body, digest buffer, commit event), not per
// node probed: at fixed K, a heartbeat over 64 nodes allocates less than
// one more time per added node than over 8, though every idle slot
// probes a queue of tasks it may not run.
func TestDispatchAllocs(t *testing.T) {
	const placeable, blocked = 4, 32
	heartbeat := func(nodes int) uint64 {
		best := ^uint64(0)
		for trial := 0; trial < 3; trial++ {
			eng := dispatchFixture(t, nodes, placeable, blocked)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			eng.tick()
			runtime.ReadMemStats(&after)
			if got := len(eng.ready); got != blocked {
				t.Fatalf("%d nodes: %d tasks left ready, want the %d blocked ones", nodes, got, blocked)
			}
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	few, many := heartbeat(8), heartbeat(64)
	if many > few && many-few >= 64-8 {
		t.Errorf("placing %d tasks: %d allocations over 8 nodes, %d over 64 — %.1f per added node, want < 1",
			placeable, few, many, float64(many-few)/(64-8))
	}
}
