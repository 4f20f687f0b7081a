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
	"clusterbft/internal/verify"
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

// TestCheckpointEligibility: only interior (in-cluster-depended-upon),
// non-Final jobs of a full-r cluster are checkpoint-eligible, and only
// when checkpointing is configured on.
func TestCheckpointEligibility(t *testing.T) {
	c := &Controller{Cfg: Config{Checkpoint: true}}
	interior, boundary := verify.Tmpl{ID: "j01", Interior: true}, verify.Tmpl{ID: "j02"}
	final, spec := &mapred.JobSpec{ID: "j00", Final: true}, &mapred.JobSpec{ID: "j01"}
	eligible := c.ckptEligible
	if !eligible(verify.PolicyFull, interior, spec) {
		t.Error("interior non-final job should be eligible")
	}
	if eligible(verify.PolicyFull, boundary, spec) {
		t.Error("boundary job (no in-cluster dependent) must not be eligible")
	}
	if eligible(verify.PolicyFull, verify.Tmpl{ID: "j00", Interior: true}, final) {
		t.Error("final job must not be eligible even with an in-cluster dependent")
	}
	if eligible(verify.PolicyQuiz, interior, spec) {
		t.Error("quiz policy (r=1) can never reach f+1 agreement; must not be eligible")
	}
	c.Cfg.Checkpoint = false
	if eligible(verify.PolicyFull, interior, spec) {
		t.Error("checkpointing off must disable eligibility")
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
			if r.Key.Point != digest.CkptPoint {
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
