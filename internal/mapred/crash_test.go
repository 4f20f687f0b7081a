package mapred

import (
	"fmt"
	"reflect"
	"testing"

	"clusterbft/internal/cluster"
)

// crashInput is large enough for several map splits so a crash lands
// while attempts are in flight.
func crashInput(n int) []string {
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%7, i))
	}
	return lines
}

const crashSrc = `
a = LOAD 'in/big' AS (k:int, v:int);
g = GROUP a BY k;
s = FOREACH g GENERATE group AS k, COUNT(a) AS n;
STORE s INTO 'out/s';
`

// TestCrashNodeMidRunRecovers fail-stops a node while its attempts are
// running: the engine must requeue the lost tasks onto survivors, finish
// the job with output identical to an undisturbed run, and keep slot
// accounting exact through the crash and the later rejoin.
func TestCrashNodeMidRunRecovers(t *testing.T) {
	clean := run(t, crashSrc, map[string][]string{"in/big": crashInput(30_000)}, CompileOptions{NumReduces: 2}, nil)
	want := clean.output(t, "out/s")

	var cl *cluster.Cluster
	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(30_000)}, CompileOptions{NumReduces: 2}, func(e *Engine) {
		cl = e.Cluster
		e.After(1_000_000, func() {
			if !e.CrashNode("node-000") {
				t.Error("CrashNode reported node-000 already dead")
			}
		})
	})
	if got := tr.output(t, "out/s"); !reflect.DeepEqual(got, want) {
		t.Errorf("post-crash output = %v, want %v", got, want)
	}
	if !idle(tr.eng) {
		t.Fatal("engine not idle after recovery")
	}
	if !tr.eng.dead["node-000"] {
		t.Error("node-000 should still be dead")
	}
	// The dead node's capacity is gone, not leaked into the free pool.
	var deadSlots int
	for _, n := range cl.Nodes() {
		if n.ID == "node-000" {
			deadSlots = n.Slots
		}
	}
	if free := tr.eng.FreeSlotsTotal(); free != cl.TotalSlots()-deadSlots {
		t.Errorf("free slots %d, want %d", free, cl.TotalSlots()-deadSlots)
	}
	if !tr.eng.RejoinNode("node-000") {
		t.Fatal("rejoin refused")
	}
	if free := tr.eng.FreeSlotsTotal(); free != cl.TotalSlots() {
		t.Errorf("free slots after rejoin %d, want %d", free, cl.TotalSlots())
	}
}

// TestCrashAllNodesThenRejoin crashes the whole cluster mid-run; the job
// stalls with no live slots until the scheduled rejoins bring capacity
// back, then completes correctly.
func TestCrashAllNodesThenRejoin(t *testing.T) {
	clean := run(t, crashSrc, map[string][]string{"in/big": crashInput(30_000)}, CompileOptions{NumReduces: 2}, nil)
	want := clean.output(t, "out/s")

	var cl *cluster.Cluster
	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(30_000)}, CompileOptions{NumReduces: 2}, func(e *Engine) {
		cl = e.Cluster
		e.After(1_000_000, func() {
			for _, n := range e.Cluster.Nodes() {
				e.CrashNode(n.ID)
			}
		})
		e.After(20_000_000, func() {
			for _, n := range e.Cluster.Nodes() {
				e.RejoinNode(n.ID)
			}
		})
	})
	if got := tr.output(t, "out/s"); !reflect.DeepEqual(got, want) {
		t.Errorf("post-outage output = %v, want %v", got, want)
	}
	if free := tr.eng.FreeSlotsTotal(); free != cl.TotalSlots() {
		t.Errorf("free slots %d, want %d after full rejoin", free, cl.TotalSlots())
	}
}

// TestCrashRejoinNoops pins the idempotency contract: crashing a dead or
// unknown node and rejoining a live one are reported no-ops.
func TestCrashRejoinNoops(t *testing.T) {
	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(100)}, CompileOptions{}, nil)
	e := tr.eng
	if e.CrashNode("node-999") {
		t.Error("crashing an unknown node must be a no-op")
	}
	if e.RejoinNode("node-001") {
		t.Error("rejoining a live node must be a no-op")
	}
	if !e.CrashNode("node-001") || e.CrashNode("node-001") {
		t.Error("second crash of the same node must report dead")
	}
	if !e.RejoinNode("node-001") {
		t.Error("rejoin after crash must succeed")
	}
}

// TestTaskHookStragglerSlowsJob checks the chaos overlay path: a hook
// slowdown multiplies virtual durations exactly like a FaultSlow
// adversary, without changing results.
func TestTaskHookStragglerSlowsJob(t *testing.T) {
	clean := run(t, crashSrc, map[string][]string{"in/big": crashInput(5_000)}, CompileOptions{NumReduces: 2}, nil)
	want := clean.output(t, "out/s")
	var cleanEnd int64
	for _, j := range clean.jobs {
		if js := clean.eng.Job(j.ID); js != nil && js.DoneTime > cleanEnd {
			cleanEnd = js.DoneTime
		}
	}

	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(5_000)}, CompileOptions{NumReduces: 2}, func(e *Engine) {
		e.TaskHook = func(node cluster.NodeID, _ *Task) TaskFault {
			return TaskFault{SlowFactor: 8}
		}
	})
	if got := tr.output(t, "out/s"); !reflect.DeepEqual(got, want) {
		t.Errorf("straggled output = %v, want %v", got, want)
	}
	var slowEnd int64
	for _, j := range tr.jobs {
		if js := tr.eng.Job(j.ID); js != nil && js.DoneTime > slowEnd {
			slowEnd = js.DoneTime
		}
	}
	if slowEnd <= cleanEnd {
		t.Errorf("8x straggler finished at %d, clean at %d", slowEnd, cleanEnd)
	}
}

// TestTaskHookHangWithholdsResult checks an injected omission: the hung
// attempt never completes and is counted like an adversary hang.
func TestTaskHookHangWithholdsResult(t *testing.T) {
	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(100)}, CompileOptions{}, func(e *Engine) {
		e.TaskHook = func(node cluster.NodeID, t *Task) TaskFault {
			return TaskFault{Hang: true}
		}
	})
	if idle(tr.eng) {
		t.Fatal("all-hang run cannot complete")
	}
	if tr.eng.Metrics.TasksHung == 0 {
		t.Error("hung attempts not counted")
	}
}

// TestTaskHookCorruptTampersOutput checks an injected commission fault:
// map inputs are tampered, so results (and digests) deviate from an
// honest run while the job still completes.
func TestTaskHookCorruptTampersOutput(t *testing.T) {
	clean := run(t, crashSrc, map[string][]string{"in/big": crashInput(5_000)}, CompileOptions{NumReduces: 2}, nil)
	want := clean.output(t, "out/s")

	tr := run(t, crashSrc, map[string][]string{"in/big": crashInput(5_000)}, CompileOptions{NumReduces: 2}, func(e *Engine) {
		e.TaskHook = func(node cluster.NodeID, _ *Task) TaskFault {
			return TaskFault{Corrupt: cluster.Corrupt}
		}
	})
	if got := tr.output(t, "out/s"); reflect.DeepEqual(got, want) {
		t.Error("corrupting hook left output identical to honest run")
	}
	if !idle(tr.eng) {
		t.Error("corrupted run should still complete")
	}
}
