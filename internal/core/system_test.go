package core

import (
	"slices"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
)

// TestSystemPlainRig: an un-Assured system is the Pure-Pig baseline's
// rig — FIFO scheduling, no control tier — and RunPlain runs on it.
func TestSystemPlainRig(t *testing.T) {
	sys := newRig(4, 2)
	if _, fifo := sys.Engine.Sched.(mapred.FIFOScheduler); !fifo || sys.Susp != nil || sys.Ctrl != nil || sys.Engine.Speculation {
		t.Fatalf("fresh system: sched %T susp %v ctrl %v speculation %v", sys.Engine.Sched, sys.Susp, sys.Ctrl, sys.Engine.Speculation)
	}
	if lat, err := RunPlain(sys.Engine, weatherScript); err != nil || lat <= 0 {
		t.Fatalf("RunPlain on an un-Assured system: latency %d, err %v", lat, err)
	}
}

// TestSystemAssureSharesOneTable: the scheduler and the controller read
// the same suspicion table (§4.2), so a node excluded through sys.Susp
// gets no work from sys.Engine.Sched.
func TestSystemAssureSharesOneTable(t *testing.T) {
	sys := newRig(4, 2)
	cfg := DefaultConfig()
	cfg.SuspicionThreshold = 0.5
	ctrl := sys.Assure(cfg)
	if ctrl != sys.Ctrl || ctrl.Susp != sys.Susp || sys.Engine.Sched.(*OverlapScheduler).Suspicion != sys.Susp {
		t.Fatal("Assure built more than one suspicion table")
	}
	task := &mapred.Task{Job: &mapred.JobState{Spec: &mapred.JobSpec{ID: "j", SID: "s1"}}, Kind: mapred.MapTask}
	node := sys.Cluster.Nodes()[1]
	if sys.Engine.Sched.Pick(node, nil, []*mapred.Task{task}) != task {
		t.Fatal("an unsuspected node must get the task")
	}
	sys.Susp.RecordFault([]cluster.NodeID{node.ID})
	if sys.Engine.Sched.Pick(node, nil, []*mapred.Task{task}) != nil {
		t.Error("a node excluded through sys.Susp still got work from sys.Engine.Sched")
	}
}

// TestRejoinedNodeHasNoAffinity: a crash forgets the node's replica
// bindings (CrashNode), and the overlap scheduler's affinity is read
// from them, so a rejoined node has none left for the attempt it served
// before the crash. Offered another attempt's task first and one of that
// attempt second, it takes them in order.
func TestRejoinedNodeHasNoAffinity(t *testing.T) {
	sys := newRig(1, 1)
	sys.Assure(DefaultConfig())
	plan, err := pig.Parse("w = LOAD 'data/weather' AS (st, temp:int);\nSTORE w INTO 'out/w';")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{NumReduces: 1})
	if err != nil || len(jobs) != 1 {
		t.Fatalf("compile: %d jobs, err %v", len(jobs), err)
	}
	var assigned []string // the attempts in the order the node took their first task
	sys.Engine.OnAssign = func(js *mapred.JobState, _ cluster.NodeID) { assigned = append(assigned, js.Spec.SID) }
	submit := func(sid, job string) {
		spec := jobs[0].Clone()
		spec.ID, spec.SID, spec.Output = sid+"/"+job, sid, "out/"+sid+"/"+job
		if _, err := sys.Engine.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	node := sys.Cluster.Nodes()[0].ID
	submit("s", "j0")
	sys.Engine.Run()
	if !sys.Engine.CrashNode(node) || !sys.Engine.RejoinNode(node) {
		t.Fatal("crash and rejoin must both happen")
	}
	submit("other", "j0")
	submit("s", "j1")
	sys.Engine.Run()
	if want := []string{"s", "other", "s"}; !slices.Equal(assigned, want) {
		t.Errorf("node took attempts in order %v, want %v", assigned, want)
	}
}

// TestSystemCheckpointArmsSpeculation: checkpoint-granular recovery and
// straggler re-launch ship together, and Assure is where (moved here
// from the cli plane's test).
func TestSystemCheckpointArmsSpeculation(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		sys := newRig(4, 2)
		cfg := DefaultConfig()
		cfg.Checkpoint = ckpt
		sys.Assure(cfg)
		if sys.Engine.Speculation != ckpt {
			t.Errorf("Checkpoint=%v: Engine.Speculation = %v", ckpt, sys.Engine.Speculation)
		}
	}
}
