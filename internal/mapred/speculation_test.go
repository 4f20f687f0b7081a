package mapred

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/pig"
)

// specFixture builds an engine over enough data for multiple map tasks.
func specFixture(t *testing.T, nodes, slots int, speculation bool) (*Engine, []*JobSpec) {
	t.Helper()
	fs := dfs.New()
	var lines []string
	for i := 0; i < 30000; i++ { // 3 map splits
		lines = append(lines, fmt.Sprintf("%d\t%d", i%50, i))
	}
	fs.Append("in/edges", lines...)
	p, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(nodes, slots), nil, DefaultCostModel())
	eng.Speculation = speculation
	return eng, p
}

func compileHelper(src string, opts CompileOptions) ([]*JobSpec, error) {
	pl, err := parseHelper(src)
	if err != nil {
		return nil, err
	}
	return Compile(pl, opts)
}

func TestSpeculationRescuesOmission(t *testing.T) {
	eng, jobs := specFixture(t, 6, 2, true)
	// One omission node: any task landing there hangs; with speculation
	// a backup on another node completes the job anyway.
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.TasksHung == 0 {
		t.Skip("omission node got no tasks in this layout")
	}
	if !js.Done {
		t.Fatal("speculation failed to rescue the job from a hung task")
	}
	if eng.Metrics.SpeculativeTasks == 0 {
		t.Error("no backup tasks counted")
	}
}

func TestNoSpeculationLeavesJobHung(t *testing.T) {
	eng, jobs := specFixture(t, 6, 2, false)
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.TasksHung == 0 {
		t.Skip("omission node got no tasks in this layout")
	}
	if js.Done {
		t.Fatal("without speculation a hung task must stall the job")
	}
}

func TestSlowFaultStretchesLatency(t *testing.T) {
	run := func(slow bool) int64 {
		eng, jobs := specFixture(t, 4, 2, false)
		if slow {
			for _, n := range eng.Cluster.Nodes() {
				n.Adversary = cluster.NewAdversary(cluster.FaultSlow, 1.0, 1)
				n.Adversary.SlowFactor = 5
			}
		}
		js, err := eng.Submit(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !js.Done {
			t.Fatal("job incomplete")
		}
		return js.Latency()
	}
	fast, stretched := run(false), run(true)
	if stretched < 3*fast {
		t.Errorf("5x stragglers everywhere should stretch latency: %d vs %d", stretched, fast)
	}
}

func TestSlowFaultOutputUnchanged(t *testing.T) {
	honest, honestJobs := specFixture(t, 4, 2, false)
	if _, err := honest.Submit(honestJobs[0]); err != nil {
		t.Fatal(err)
	}
	honest.Run()
	want, err := honest.FS.ReadTree("out/counts")
	if err != nil {
		t.Fatal(err)
	}

	slowEng, slowJobs := specFixture(t, 4, 2, false)
	slowEng.Cluster.Nodes()[0].Adversary = cluster.NewAdversary(cluster.FaultSlow, 1.0, 1)
	if _, err := slowEng.Submit(slowJobs[0]); err != nil {
		t.Fatal(err)
	}
	slowEng.Run()
	got, err := slowEng.FS.ReadTree("out/counts")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("output sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs: %q vs %q (stragglers are benign)", i, got[i], want[i])
		}
	}
}

func TestSpeculationAgainstStraggler(t *testing.T) {
	// A single straggler node: with speculation the job finishes much
	// closer to the honest latency because the backup overtakes.
	run := func(speculation bool) int64 {
		eng, jobs := specFixture(t, 6, 2, speculation)
		adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 1)
		adv.SlowFactor = 20
		eng.Cluster.Nodes()[1].Adversary = adv
		js, err := eng.Submit(jobs[0])
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !js.Done {
			t.Fatal("job incomplete")
		}
		return js.Latency()
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Errorf("speculation should beat a 20x straggler: with=%d without=%d", with, without)
	}
}

func TestSpeculationDeterministic(t *testing.T) {
	run := func() (int64, int64) {
		eng, jobs := specFixture(t, 6, 2, true)
		adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 1)
		adv.SlowFactor = 20
		eng.Cluster.Nodes()[1].Adversary = adv
		js, _ := eng.Submit(jobs[0])
		eng.Run()
		return js.Latency(), eng.Metrics.SpeculativeTasks
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Errorf("speculation nondeterministic: (%d,%d) vs (%d,%d)", l1, s1, l2, s2)
	}
}

func TestAdversarySlowdownDefault(t *testing.T) {
	a := cluster.NewAdversary(cluster.FaultSlow, 1.0, 1)
	if a.Slowdown() != 4 {
		t.Errorf("default slowdown = %v, want 4", a.Slowdown())
	}
	a.SlowFactor = 7
	if a.Slowdown() != 7 {
		t.Errorf("explicit slowdown = %v", a.Slowdown())
	}
	var nilAdv *cluster.Adversary
	if nilAdv.Slowdown() != 4 {
		t.Error("nil adversary slowdown should default")
	}
}

func parseHelper(src string) (*pig.Plan, error) { return pig.Parse(src) }

func TestBackupNeverSharesNodeWithLiveOriginal(t *testing.T) {
	// §4.2: a speculative backup defeats omission-fault recovery if it
	// lands on the node still running (or hanging) the original, so the
	// engine must never co-locate two live attempts of one task. Checked
	// continuously over a run with hung originals and backups in flight.
	eng, jobs := specFixture(t, 6, 2, true)
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	var check func()
	check = func() {
		for _, tk := range js.tasks {
			seen := map[cluster.NodeID]bool{}
			for _, rt := range tk.running {
				if rt.dead {
					continue
				}
				if seen[rt.node] {
					t.Errorf("task %s has two live attempts on %s", tk.ID(), rt.node)
				}
				seen[rt.node] = true
			}
		}
		if !js.Done && !js.Killed && eng.Now() < 600_000_000 {
			eng.After(500_000, check)
		}
	}
	eng.After(500_000, check)
	eng.Run()
	if eng.Metrics.SpeculativeTasks == 0 {
		t.Skip("no backups launched in this layout")
	}
	if !js.Done {
		t.Fatal("backups on honest nodes should have rescued the job")
	}
}

func TestUnplaceableBackupDoesNotSpinEngine(t *testing.T) {
	// A single-node cluster with a sometimes-omission adversary: hung
	// tasks earn backups, but the only legal node is the one hanging the
	// original, so the backups can never be placed. The engine must go
	// quiescent (Run returns, job incomplete) instead of re-arming
	// heartbeats and speculation sweeps forever — before the fix this
	// test never returned.
	fs := dfs.New()
	var lines []string
	for i := 0; i < 30000; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%50, i))
	}
	fs.Append("in/edges", lines...)
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(1, 2), nil, DefaultCostModel())
	eng.Speculation = true
	if err := eng.Cluster.SetAdversary("node-000", cluster.FaultOmission, 0.5, 7); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.TasksHung == 0 || eng.Metrics.SpeculativeTasks == 0 {
		t.Fatalf("scenario lost its shape: hung=%d spec=%d",
			eng.Metrics.TasksHung, eng.Metrics.SpeculativeTasks)
	}
	if js.Done {
		t.Fatal("a hung task with no legal backup node cannot complete")
	}
	// The queued backups stay pending — never started, never placed on
	// the hanging node.
	for _, rdy := range eng.ready {
		for _, rt := range rdy.running {
			if !rt.hung {
				t.Errorf("queued backup %s coexists with a live attempt", rdy.ID())
			}
		}
	}
}

func TestCommittedTaskLeavesReadyQueue(t *testing.T) {
	// A backup queued while the cluster is saturated may still be queued
	// when the original commits; the commit must purge it from the ready
	// queue. Before the fix the stale entry re-armed heartbeats forever
	// and Run never returned. Single node + mixed straggler forces the
	// shape: the backup is never placeable, and the slow original
	// eventually commits on its own.
	fs := dfs.New()
	var lines []string
	for i := 0; i < 30000; i++ {
		lines = append(lines, fmt.Sprintf("%d\t%d", i%50, i))
	}
	fs.Append("in/edges", lines...)
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(fs, cluster.New(1, 2), nil, DefaultCostModel())
	eng.Speculation = true
	adv := cluster.NewAdversary(cluster.FaultSlow, 0.5, 2)
	adv.SlowFactor = 25
	eng.Cluster.Nodes()[0].Adversary = adv
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.SpeculativeTasks == 0 {
		t.Fatalf("scenario lost its shape: no backup queued")
	}
	if !js.Done {
		t.Fatal("stragglers are benign; the job must complete")
	}
	if len(eng.ready) != 0 {
		t.Fatalf("%d committed task(s) left on the ready queue", len(eng.ready))
	}
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

// pinSched wraps a scheduler and asserts two placement invariants at
// every pick: the node being offered work has a genuinely free slot,
// and a speculative backup is never handed to a node already hosting a
// live attempt of the same task (the straggler's — or hung original's —
// own node). These are the rules the specSweep re-launch path depends
// on; a regression here silently turns backups into no-ops.
type pinSched struct {
	t     *testing.T
	e     *Engine
	inner Scheduler
}

func (p *pinSched) Pick(node *cluster.Node, cands []*Task) *Task {
	if p.e.freeSlots[node.ID] <= 0 {
		p.t.Errorf("scheduler offered work to %s with %d free slots", node.ID, p.e.freeSlots[node.ID])
	}
	picked := p.inner.Pick(node, cands)
	if picked != nil {
		for _, rt := range picked.running {
			if !rt.dead && rt.node == node.ID {
				p.t.Errorf("backup of %s placed on %s, which still hosts a live attempt", picked.ID(), node.ID)
			}
		}
	}
	return picked
}

func TestBackupRelaunchPlacementPins(t *testing.T) {
	// Two nodes, one of them hanging every task it touches: the hung
	// originals pin their slots, so for long stretches the honest node is
	// the only one with capacity — and each hung task's sole legal backup
	// target. Every placement decision of the run is audited by pinSched.
	eng, jobs := specFixture(t, 2, 2, true)
	eng.Sched = &pinSched{t: t, e: eng, inner: eng.Sched}
	if err := eng.Cluster.SetAdversary("node-000", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.TasksHung == 0 || eng.Metrics.SpeculativeTasks == 0 {
		t.Fatalf("scenario lost its shape: hung=%d spec=%d",
			eng.Metrics.TasksHung, eng.Metrics.SpeculativeTasks)
	}
	if !js.Done {
		t.Fatal("backups on the honest node should have rescued the job")
	}
	// The hung node's claimed slots stay claimed; accounting never goes
	// negative and never exceeds capacity.
	for _, n := range eng.Cluster.Nodes() {
		if free := eng.freeSlots[n.ID]; free < 0 || free > n.Slots {
			t.Errorf("node %s free slots = %d of %d", n.ID, free, n.Slots)
		}
	}
}

func TestKillJobDiscardsInFlightBackups(t *testing.T) {
	// KillJob racing an in-flight speculative re-launch: the controller
	// kills a replica's jobs (verification completed elsewhere, or the
	// sub-graph was superseded) while a backup attempt is still running.
	// Neither the backup nor any other attempt of the killed job may
	// commit afterwards, and the ledger must charge the torn-down work as
	// lost — committed charges for the job's sid must not move.
	eng, jobs := specFixture(t, 6, 2, true)
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	spec := jobs[0]
	spec.SID = "sid-kill"
	eng.Ledger = NewCostLedger()
	eng.Ledger.Launch(spec.SID, CostModeFull)
	js, err := eng.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var killedAt int64
	var committedAtKill int
	var committedUsAtKill int64
	var poll func()
	poll = func() {
		if js.Done || killedAt > 0 {
			return
		}
		// Kill the moment a backup attempt is live next to its original.
		inFlight := false
		for _, tk := range js.tasks {
			live := 0
			for _, rt := range tk.running {
				if !rt.dead {
					live++
				}
			}
			if live > 1 {
				inFlight = true
				break
			}
		}
		if inFlight {
			killedAt = eng.Now()
			committedAtKill = countTasks(js, func(tk *Task) bool { return tk.committed })
			b, _ := eng.Ledger.SIDBuckets(spec.SID)
			committedUsAtKill = b.CommittedUs
			eng.KillJob(spec.ID)
			return
		}
		eng.After(200_000, poll)
	}
	eng.After(200_000, poll)
	eng.Run()
	if killedAt == 0 {
		t.Skip("no backup was in flight in this layout")
	}
	if js.Done {
		t.Fatal("killed job reported Done")
	}
	if !js.Killed {
		t.Fatal("job not marked Killed")
	}
	if got := countTasks(js, func(tk *Task) bool { return tk.committed }); got != committedAtKill {
		t.Errorf("%d task(s) committed after KillJob (had %d at kill)", got-committedAtKill, committedAtKill)
	}
	if n := countTasks(js, func(tk *Task) bool { return len(tk.running) > 0 }); n != 0 {
		t.Errorf("%d task(s) still listed running after kill", n)
	}
	b, ok := eng.Ledger.SIDBuckets(spec.SID)
	if !ok {
		t.Fatal("sid vanished from ledger")
	}
	if b.CommittedUs != committedUsAtKill {
		t.Errorf("committed charges moved after kill: %d -> %d us", committedUsAtKill, b.CommittedUs)
	}
	if got, want := eng.Ledger.TotalUs(), eng.Metrics.CPUTimeUs; got != want {
		t.Errorf("ledger buckets sum to %dus, engine charged %dus", got, want)
	}
	if got := eng.FreeSlotsTotal(); got != eng.Cluster.TotalSlots() {
		t.Errorf("free slots = %d, want %d", got, eng.Cluster.TotalSlots())
	}
}

// countTasks counts the tasks of js that satisfy pred.
func countTasks(js *JobState, pred func(*Task) bool) int {
	n := 0
	for _, tk := range js.tasks {
		if pred(tk) {
			n++
		}
	}
	return n
}

// TestBackupReduceMergesSharedRuns: the first attempt of one reduce task
// of a join is slowed past the speculation threshold, so a backup attempt
// merges the very runs the primary merged — the map outcomes' partitions,
// sorted in place before the outcome was published and shared, not
// copied, by every attempt since (the sibling reduce task reads the same
// outcomes from another worker in the primary's tick). The output must
// equal the fault-free run's and the runs must come out as they went in.
func TestBackupReduceMergesSharedRuns(t *testing.T) {
	src := `
a = LOAD 'in/edges' AS (user:int, follower:int);
b = LOAD 'in/edges' AS (user:int, follower:int);
j = JOIN a BY follower, b BY user;
p = FOREACH j GENERATE a::user, b::follower;
STORE p INTO 'out/hops';`
	in := map[string][]string{"in/edges": geomEdges(3000)}
	opts := CompileOptions{NumReduces: 2}
	clean := run(t, src, in, opts, nil)

	var backups int
	var before [][]interRec
	tr := run(t, src, in, opts, func(e *Engine) {
		e.Speculation = true
		e.Cost.SplitRecords = 1000 // three runs per input and partition
		attempts := 0
		e.TaskHook = func(_ cluster.NodeID, task *Task) TaskFault {
			if task.Kind != ReduceTask || task.Index != 0 {
				return TaskFault{}
			}
			attempts++
			if attempts > 1 {
				backups++
				return TaskFault{}
			}
			for _, out := range task.Job.mapOutcomes {
				before = append(before, slices.Clone(out.partitions[0]))
			}
			return TaskFault{SlowFactor: 50}
		}
	})
	js := tr.eng.Job(tr.jobs[0].ID)
	if !js.Done {
		t.Fatal("job incomplete")
	}
	if backups == 0 || tr.eng.Metrics.SpeculativeTasks == 0 {
		t.Fatalf("no backup attempt of r000 ran (backups=%d, speculative=%d)", backups, tr.eng.Metrics.SpeculativeTasks)
	}
	if got, want := tr.output(t, "out/hops"), clean.output(t, "out/hops"); !reflect.DeepEqual(got, want) {
		t.Errorf("output with a backup reduce differs from the clean run: %d vs %d lines", len(got), len(want))
	}
	if len(before) != 6 {
		t.Fatalf("r000 merged %d runs, want 6", len(before))
	}
	for i, out := range js.mapOutcomes {
		if !reflect.DeepEqual(out.partitions[0], before[i]) {
			t.Errorf("run %d changed after it was published", i)
		}
	}
}
