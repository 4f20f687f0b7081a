package core

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
)

// TestCheckpointCleanRunSavesAndTearsDown: with checkpointing on, a
// fault-free run persists each interior job's verified output (one save
// per in-cluster dependency edge target), consumes none of them (no
// retries), produces byte-identical outputs to a checkpoint-off run,
// and leaves no ckpt/ files behind at teardown.
func TestCheckpointCleanRunSavesAndTearsDown(t *testing.T) {
	run := func(checkpoint bool) (*harness, []string, CheckpointStats) {
		cfg := DefaultConfig()
		cfg.Checkpoint = checkpoint
		// One verification point at the STORE: both MR jobs share a
		// cluster, making the first an interior (checkpointable) job.
		cfg.ForcePointAliases = []string{"counts"}
		h := newHarness(t, 8, 2, cfg)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatal("clean run must verify")
		}
		return h, h.outputLines(t, res, "out/counts"), h.Ctrl.CheckpointStats()
	}
	hOn, withCkpt, stats := run(true)
	_, without, offStats := run(false)
	if stats.Saves == 0 || stats.BytesWritten == 0 {
		t.Errorf("no interior job checkpointed: %+v", stats)
	}
	if stats.Hits != 0 || stats.BytesReclaimed != 0 {
		t.Errorf("clean run consumed a checkpoint: %+v", stats)
	}
	if offStats != (CheckpointStats{}) {
		t.Errorf("checkpoint-off run touched the registry: %+v", offStats)
	}
	if len(withCkpt) != len(without) {
		t.Fatalf("output sizes differ: %d vs %d", len(withCkpt), len(without))
	}
	for i := range without {
		if withCkpt[i] != without[i] {
			t.Fatalf("line %d differs: %q vs %q", i, withCkpt[i], without[i])
		}
	}
	// Teardown deleted the persisted files.
	if files := hOn.FS.List("ckpt"); len(files) != 0 {
		t.Errorf("teardown left checkpoint files %v", files)
	}
}

// TestCheckpointSourceSignature: a checkpoint is only valid for an
// attempt consuming exactly the upstream (sid, replica) pairs recorded
// at save time. A re-verified upstream (same sid, different winner), a
// restarted upstream (new sid), or a changed upstream set all
// invalidate it.
func TestCheckpointSourceSignature(t *testing.T) {
	s := &verdict{id: 2}
	s.sources = map[int]sourceRef{
		0: {sid: "run1-c0-a0", replica: 1},
		1: {sid: "run1-c1-a1", replica: 0},
	}
	saved := func() map[int]sourceRef {
		return map[int]sourceRef{
			0: {sid: "run1-c0-a0", replica: 1},
			1: {sid: "run1-c1-a1", replica: 0},
		}
	}

	s.ckpts = map[string]map[int]sourceRef{"j01": saved()}
	if !s.ckptValid("j01") {
		t.Fatal("exact source match rejected")
	}

	// Different winner replica of the same upstream attempt: the bytes
	// this attempt reads are another replica's output tree.
	e := saved()
	e[0] = sourceRef{sid: "run1-c0-a0", replica: 2}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("winner-replica change accepted")
	}

	// Restarted upstream: new attempt sid.
	e = saved()
	e[1] = sourceRef{sid: "run1-c1-a2", replica: 0}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("upstream sid change accepted")
	}

	// Upstream set shrank or grew between save and relaunch.
	e = saved()
	delete(e, 1)
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("missing upstream accepted")
	}
	e = saved()
	e[3] = sourceRef{sid: "run1-c3-a0", replica: 0}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("extra upstream accepted")
	}

	// No entry at all.
	delete(s.ckpts, "j01")
	if s.ckptValid("j01") {
		t.Error("missing entry accepted")
	}
}

// TestCheckpointEligibility: only interior (in-cluster-depended-upon),
// non-Final jobs of a full-r cluster are checkpoint-eligible, and only
// when checkpointing is configured on.
func TestCheckpointEligibility(t *testing.T) {
	c := &Controller{Cfg: Config{Checkpoint: true}}
	final := tmpl{id: "j00", spec: &mapred.JobSpec{ID: "j00", Final: true}, interior: true}
	interior := tmpl{id: "j01", spec: &mapred.JobSpec{ID: "j01"}, interior: true}
	boundary := tmpl{id: "j02", spec: &mapred.JobSpec{ID: "j02"}}
	eligible := c.ckptEligible
	if !eligible(PolicyFull, interior) {
		t.Error("interior non-final job should be eligible")
	}
	if eligible(PolicyFull, boundary) {
		t.Error("boundary job (no in-cluster dependent) must not be eligible")
	}
	if eligible(PolicyFull, final) {
		t.Error("final job must not be eligible even with an in-cluster dependent")
	}
	if eligible(PolicyQuiz, interior) {
		t.Error("quiz policy (r=1) can never reach f+1 agreement; must not be eligible")
	}
	c.Cfg.Checkpoint = false
	if eligible(PolicyFull, interior) {
		t.Error("checkpointing off must disable eligibility")
	}
}

// TestSuffixRetryShedsSuffixEscalations is the satellite-1 regression
// test for suffix-scoped replica sizing: timeout escalations earned
// while re-executing only a checkpointed suffix must not follow the
// checkpointed-prefix jobs into a later full re-execution — those jobs
// re-run at their original degree. Escalations earned by full-graph
// attempts are kept.
func TestSuffixRetryShedsSuffixEscalations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 3
	cfg.MaxAttempts = 10
	cfg.Checkpoint = true
	cfg.ForcePointAliases = []string{"counts"}
	h := newHarness(t, 8, 2, cfg)
	c := h.Ctrl

	plan, err := pig.Parse(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	points, err := c.choosePoints(plan)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{Points: points, NumReduces: cfg.NumReduces})
	if err != nil {
		t.Fatal(err)
	}
	c.runSeq++
	c.initRun(jobs, points)
	cs := c.clusters[0]
	c.dispatch(event{kind: evStart})
	// submitted counts the jobs each replica of the current attempt runs.
	submitted := func(cs *clusterState) int {
		n := 0
		for _, tm := range cs.tmpls {
			if c.Eng.Job(replicaPath(cs.plan.sid, 0, tm.id)) != nil {
				n++
			}
		}
		return n
	}
	if cs.r != 3 || submitted(cs) != len(cs.tmpls) {
		t.Fatalf("first attempt: r=%d submitted=%d/%d", cs.r, submitted(cs), len(cs.tmpls))
	}
	// timeout fires the current attempt's verifier timer.
	timeout := func(c *Controller, cs *clusterState) { c.dispatch(event{kind: evTimeout, sid: cs.sid}) }

	// As if attempt a0 reached f+1 agreement on the interior job before
	// timing out: plant its checkpoint (no upstream, so the source
	// signature is empty and stays valid across attempts).
	var interior string
	for _, tm := range cs.tmpls {
		if tm.interior {
			interior = tm.id
		}
	}
	if interior == "" {
		t.Fatal("scenario needs an interior (checkpointable) job")
	}
	h.FS.Append("ckpt/run1/c0/"+interior, "st00\t1")
	cs.ckpts = map[string]map[int]sourceRef{interior: {}}

	// Full attempt a0 times out: a classic cluster-wide escalation.
	timeout(c, cs)
	if cs.r != 4 || cs.suffixBoost != 0 {
		t.Fatalf("full-graph escalation: r=%d boost=%d, want r=4 boost=0", cs.r, cs.suffixBoost)
	}
	if submitted(cs) >= len(cs.tmpls) {
		t.Fatal("retry did not consume the planted checkpoint")
	}
	// Two suffix-only attempts time out: escalations scoped to the suffix.
	timeout(c, cs)
	timeout(c, cs)
	if cs.r != 6 || cs.suffixBoost != 2 {
		t.Fatalf("suffix escalations: r=%d boost=%d, want r=6 boost=2", cs.r, cs.suffixBoost)
	}
	// Upstream lineage becomes suspect: checkpoints dropped, the next
	// attempt re-executes the full graph — the checkpointed-prefix jobs
	// come back at the degree they always had (base 3 + the one
	// full-graph escalation), not at the suffix-inflated 7.
	c.dropCkpts(cs)
	cs.ckpts = nil
	timeout(c, cs)
	if submitted(cs) != len(cs.tmpls) {
		t.Fatal("expected a full re-execution after dropping checkpoints")
	}
	if cs.r != 4 || cs.suffixBoost != 0 {
		t.Errorf("full re-execution r=%d boost=%d, want r=4 boost=0 (suffix escalations shed)", cs.r, cs.suffixBoost)
	}

	// Control: the identical sequence without checkpoint coverage keeps
	// the historical cluster-wide escalation.
	c2 := newHarness(t, 8, 2, cfg).Ctrl
	c2.runSeq++
	c2.initRun(jobs, points)
	cs2 := c2.clusters[0]
	c2.dispatch(event{kind: evStart})
	for i := 0; i < 4; i++ {
		timeout(c2, cs2)
	}
	if cs2.r != 7 || cs2.suffixBoost != 0 {
		t.Errorf("uncovered retries: r=%d boost=%d, want r=7 boost=0", cs2.r, cs2.suffixBoost)
	}
}

// segmentEnds returns where each of the file's segments (sealed blocks,
// then the tail) ends, in records: the blocks its lines were sealed into.
func segmentEnds(t *testing.T, fs *dfs.FS, path string) []int {
	t.Helper()
	r, err := fs.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	var b dfs.Batch
	var ends []int
	for at := 0; at < r.NumRecords(); ends = append(ends, at) {
		at = r.ReadColumns(&b, at, r.NumRecords(), nil)
	}
	return ends
}

// TestMangledReplicaIsNeverCheckpointed: a worker of the replica a clean
// run checkpoints from tampers with a part of its interior job before
// sealing it. The part file holds the tampered lines, so the replica's
// CkptPoint digest leaves the f+1 that agree: the one checkpoint is saved
// from another replica, and the ckpt/ file holds the clean run's lines in
// the blocks Append seals them into.
func TestMangledReplicaIsNeverCheckpointed(t *testing.T) {
	opts := dfs.Options{BlockSize: 24}
	// run runs the script with a Tamper from tamper on every task it
	// returns one for, and returns every ckpt/ file as saved, the records
	// its segments end at and the replicas checkpoints came from.
	run := func(tamper func(*mapred.Task) func([]string) []string) (saved map[string][]string, savedEnds map[string][]int, from []int) {
		h := &harness{NewSystem(8, 2, opts, mapred.DefaultCostModel())}
		h.FS.Append("data/weather", weatherData(2000)...)
		cfg := DefaultConfig()
		cfg.Checkpoint = true
		cfg.ForcePointAliases = []string{"counts"}
		h.Assure(cfg)
		trail := analyze.NewAuditTrail(h.Engine.Now)
		h.Ctrl.AttachAudit(trail)
		if tamper != nil {
			h.Engine.TaskHook = func(_ cluster.NodeID, task *mapred.Task) mapred.TaskFault {
				return mapred.TaskFault{Tamper: tamper(task)}
			}
		}
		saved, savedEnds = map[string][]string{}, map[string][]int{}
		sink := h.Engine.DigestSink
		h.Engine.DigestSink = func(r digest.Report) {
			sink(r)
			if r.Key.Point != mapred.CkptPoint {
				return
			}
			for _, p := range h.FS.List("ckpt") { // teardown deletes them
				if saved[p] == nil {
					saved[p], _ = h.FS.ReadTree(p)
					savedEnds[p] = segmentEnds(t, h.FS, p)
				}
			}
		}
		if _, err := h.Ctrl.Run(weatherScript); err != nil {
			t.Fatal(err)
		}
		for _, ev := range trail.Events() {
			if ev.Kind == analyze.AuditCheckpoint {
				from = append(from, ev.Replica)
			}
		}
		return saved, savedEnds, from
	}

	want, wantEnds, cleanFrom := run(nil)
	if len(want) != 1 || len(cleanFrom) != 1 {
		t.Fatalf("the clean run saved checkpoints %v from replicas %v: want one", slices.Sorted(maps.Keys(want)), cleanFrom)
	}
	for p, lines := range want {
		if len(lines) < 8 || len(wantEnds[p]) < 3 {
			t.Fatalf("%s holds %d lines in segments ending at %v: too few to test", p, len(lines), wantEnds[p])
		}
	}
	mangled := cleanFrom[0]
	var mu sync.Mutex
	var victim []string // the part the mangled replica's task stored
	saved, savedEnds, from := run(func(task *mapred.Task) func([]string) []string {
		if !task.Job.Spec.Ckpt || task.Job.Spec.Replica != mangled || task.Kind != mapred.ReduceTask || task.Index != 0 {
			return nil
		}
		return func(lines []string) []string {
			lines = append(lines, "mangled")
			mu.Lock()
			victim = slices.Clone(lines)
			mu.Unlock()
			return lines
		}
	})
	if len(victim) < 2 {
		t.Fatalf("replica %d's task stored %q: nothing mangled", mangled, victim)
	}
	if len(saved) != 1 || len(from) != 1 || from[0] == mangled {
		t.Fatalf("checkpoints %v saved from replicas %v: want one, not from replica %d", slices.Sorted(maps.Keys(saved)), from, mangled)
	}
	for p, lines := range saved {
		if !slices.Equal(lines, want[p]) {
			t.Errorf("%s holds %q, the clean run's %q", p, lines, want[p])
		}
		if !slices.Equal(savedEnds[p], wantEnds[p]) {
			t.Errorf("%s holds blocks ending at records %v, the clean run's at %v", p, savedEnds[p], wantEnds[p])
		}
	}
}
