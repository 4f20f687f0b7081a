package core

import (
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
)

// TestCheckpointCleanRunSavesAndTearsDown: with checkpointing on, a
// fault-free run persists each interior job's verified output (one save
// per in-cluster dependency edge target), consumes none of them (no
// retries), produces byte-identical outputs to a checkpoint-off run,
// and leaves no registry entries or ckpt/ files behind at teardown.
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
	// Teardown dropped every entry and deleted the persisted files.
	for cid, reg := range hOn.Ctrl.ckpts {
		t.Errorf("cluster %d retains %d checkpoint entries after teardown", cid, len(reg))
	}
}

// TestCheckpointSourceSignature: a checkpoint is only valid for an
// attempt consuming exactly the upstream (sid, replica) pairs recorded
// at save time. A re-verified upstream (same sid, different winner), a
// restarted upstream (new sid), or a changed upstream set all
// invalidate it.
func TestCheckpointSourceSignature(t *testing.T) {
	c := &Controller{
		Cfg:       Config{Checkpoint: true},
		ckpts:     map[int]map[string]*ckptEntry{},
		templates: map[string]*mapred.JobSpec{"j01": {ID: "j01"}},
	}
	cs := &clusterState{
		id:       2,
		policy:   PolicyFull,
		hasInDep: map[string]bool{"j01": true},
		sources: map[int]sourceRef{
			0: {sid: "run1-c0-a0", replica: 1},
			1: {sid: "run1-c1-a1", replica: 0},
		},
	}
	entry := func() *ckptEntry {
		return &ckptEntry{
			sum:  digest.Sum{1},
			path: "ckpt/run1/c2/j01",
			srcs: map[int]ckptSrc{
				0: {sid: "run1-c0-a0", replica: 1},
				1: {sid: "run1-c1-a1", replica: 0},
			},
		}
	}

	c.ckpts[cs.id] = map[string]*ckptEntry{"j01": entry()}
	if c.ckptValid(cs, "j01") == nil {
		t.Fatal("exact source match rejected")
	}

	// Different winner replica of the same upstream attempt: the bytes
	// this attempt reads are another replica's output tree.
	e := entry()
	e.srcs[0] = ckptSrc{sid: "run1-c0-a0", replica: 2}
	c.ckpts[cs.id]["j01"] = e
	if c.ckptValid(cs, "j01") != nil {
		t.Error("winner-replica change accepted")
	}

	// Restarted upstream: new attempt sid.
	e = entry()
	e.srcs[1] = ckptSrc{sid: "run1-c1-a2", replica: 0}
	c.ckpts[cs.id]["j01"] = e
	if c.ckptValid(cs, "j01") != nil {
		t.Error("upstream sid change accepted")
	}

	// Upstream set shrank or grew between save and relaunch.
	e = entry()
	delete(e.srcs, 1)
	c.ckpts[cs.id]["j01"] = e
	if c.ckptValid(cs, "j01") != nil {
		t.Error("missing upstream accepted")
	}
	e = entry()
	e.srcs[3] = ckptSrc{sid: "run1-c3-a0", replica: 0}
	c.ckpts[cs.id]["j01"] = e
	if c.ckptValid(cs, "j01") != nil {
		t.Error("extra upstream accepted")
	}

	// No entry at all.
	delete(c.ckpts[cs.id], "j01")
	if c.ckptValid(cs, "j01") != nil {
		t.Error("missing entry accepted")
	}
}

// TestCheckpointEligibility: only interior (in-cluster-depended-upon),
// non-Final jobs of a full-r cluster are checkpoint-eligible, and only
// when checkpointing is configured on.
func TestCheckpointEligibility(t *testing.T) {
	c := &Controller{
		Cfg: Config{Checkpoint: true},
		templates: map[string]*mapred.JobSpec{
			"j00": {ID: "j00", Final: true},
			"j01": {ID: "j01"},
			"j02": {ID: "j02"},
		},
	}
	cs := &clusterState{
		id:       0,
		policy:   PolicyFull,
		hasInDep: map[string]bool{"j01": true, "j00": true},
	}
	if !c.ckptEligible(cs, "j01") {
		t.Error("interior non-final job should be eligible")
	}
	if c.ckptEligible(cs, "j02") {
		t.Error("boundary job (no in-cluster dependent) must not be eligible")
	}
	if c.ckptEligible(cs, "j00") {
		t.Error("final job must not be eligible even with an in-cluster dependent")
	}
	cs.policy = PolicyQuiz
	if c.ckptEligible(cs, "j01") {
		t.Error("quiz policy (r=1) can never reach f+1 agreement; must not be eligible")
	}
	cs.policy = PolicyFull
	c.Cfg.Checkpoint = false
	if c.ckptEligible(cs, "j01") {
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
	c.tryLaunch(cs)
	if cs.r != 3 || len(cs.launchJobs) != len(cs.jobs) {
		t.Fatalf("first attempt: r=%d launchJobs=%d/%d", cs.r, len(cs.launchJobs), len(cs.jobs))
	}

	// As if attempt a0 reached f+1 agreement on the interior job before
	// timing out: plant its checkpoint (no upstream, so the source
	// signature is empty and stays valid across attempts).
	var interior string
	for id := range cs.hasInDep {
		interior = id
	}
	if interior == "" {
		t.Fatal("scenario needs an interior (checkpointable) job")
	}
	h.FS.Append("ckpt/run1/c0/"+interior, "st00\t1")
	c.ckpts[cs.id] = map[string]*ckptEntry{interior: {
		path: "ckpt/run1/c0/" + interior, records: 1, bytes: 8,
		srcs: map[int]ckptSrc{},
	}}

	// Full attempt a0 times out: a classic cluster-wide escalation.
	c.retry(cs, analyze.CauseTimeout)
	if cs.r != 4 || cs.suffixBoost != 0 {
		t.Fatalf("full-graph escalation: r=%d boost=%d, want r=4 boost=0", cs.r, cs.suffixBoost)
	}
	if len(cs.launchJobs) >= len(cs.jobs) {
		t.Fatal("retry did not consume the planted checkpoint")
	}
	// Two suffix-only attempts time out: escalations scoped to the suffix.
	c.retry(cs, analyze.CauseTimeout)
	c.retry(cs, analyze.CauseTimeout)
	if cs.r != 6 || cs.suffixBoost != 2 {
		t.Fatalf("suffix escalations: r=%d boost=%d, want r=6 boost=2", cs.r, cs.suffixBoost)
	}
	// Upstream lineage becomes suspect: checkpoints dropped, the next
	// attempt re-executes the full graph — the checkpointed-prefix jobs
	// come back at the degree they always had (base 3 + the one
	// full-graph escalation), not at the suffix-inflated 7.
	c.dropCkpts(cs)
	c.retry(cs, analyze.CauseTimeout)
	if len(cs.launchJobs) != len(cs.jobs) {
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
	c2.tryLaunch(cs2)
	for i := 0; i < 4; i++ {
		c2.retry(cs2, analyze.CauseTimeout)
	}
	if cs2.r != 7 || cs2.suffixBoost != 0 {
		t.Errorf("uncovered retries: r=%d boost=%d, want r=7 boost=0", cs2.r, cs2.suffixBoost)
	}
}
