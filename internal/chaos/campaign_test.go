package chaos

import (
	"fmt"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
)

// TestChaosCampaign is the property test of the fault-injection
// subsystem: 200 seeded schedules (40 under -short) run end-to-end, each
// checked against the global invariants — every sub-graph Verified or
// explicitly failed, verified outputs byte-identical to a clean run,
// slot accounting restored to cluster capacity, every fault attribution
// traced to an injected fault, and the BFT group agreeing under
// quorum-bounded message perturbations. The campaign runs twice and the
// reports must be byte-identical: the whole subsystem is a pure function
// of the seeds. Its storage must seal, spill and code blocks, so that the
// faults meet the read path that ships.
func TestChaosCampaign(t *testing.T) {
	cfg := DefaultCampaign()
	if testing.Short() {
		cfg.Schedules = 40
	}
	var stores []*dfs.FS
	cfg.Observe = func(e *mapred.Engine) { stores = append(stores, e.FS) }
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("invariant violation: %s", v)
	}

	// The campaign must actually exercise the recovery machinery, not
	// coast through no-op schedules.
	var retries, verified, mangled, netRuns int
	for _, sr := range rep.Results {
		retries += sr.Recoveries["retry"] + sr.Recoveries["restart"]
		if sr.Verified {
			verified++
		}
		mangled += sr.Mangled
		if sr.NetRan {
			netRuns++
		}
	}
	if retries == 0 {
		t.Error("no schedule triggered a retry or restart")
	}
	if verified == 0 {
		t.Error("no schedule recovered to verified")
	}
	if mangled == 0 {
		t.Error("no schedule mangled stored data")
	}
	if netRuns == 0 {
		t.Error("no schedule perturbed the BFT network")
	}
	spilled, coded := false, false
	for _, fs := range stores {
		spilled = spilled || fs.SpilledBlocks() > 0
		coded = coded || fs.CompressedRatio() < 100
	}
	if !spilled || !coded {
		t.Errorf("over %d runs, blocks spilled: %v, a block stored coded: %v", len(stores), spilled, coded)
	}

	again, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep.Render(), again.Render()
	if a != b {
		line := "?"
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				line = la[i]
				break
			}
		}
		t.Fatalf("campaign is not deterministic; first divergent line:\n%s", line)
	}
}

// TestChaosCampaignCheckpoint is the checkpoint leg of the campaign
// matrix: the same seeded schedules run with checkpoint-granular
// recovery and quantile speculation enabled, and every invariant —
// including I3 (verified outputs byte-identical to the clean run, which
// is invariant I7's substance) and the new I7 sanity checks — must hold
// on all of them.
func TestChaosCampaignCheckpoint(t *testing.T) {
	cfg := DefaultCampaign()
	cfg.Core.Checkpoint = true
	if testing.Short() {
		cfg.Schedules = 40
	}
	rep, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations() {
		t.Errorf("invariant violation: %s", v)
	}
	var saves int64
	var recoveries, verified int
	for _, sr := range rep.Results {
		saves += sr.CkptSaves
		recoveries += sr.Recoveries["retry"] + sr.Recoveries["restart"]
		if sr.Verified {
			verified++
		}
	}
	if saves == 0 {
		t.Error("no schedule persisted a checkpoint")
	}
	if recoveries == 0 {
		t.Error("no schedule triggered a retry or restart")
	}
	if verified == 0 {
		t.Error("no schedule recovered to verified")
	}

	again, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := rep.Render(), again.Render(); a != b {
		line := "?"
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				line = la[i]
				break
			}
		}
		t.Fatalf("checkpoint campaign is not deterministic; first divergent line:\n%s", line)
	}
}

// TestCheckpointHitRecovery pins the checkpoint-consumption path with a
// deterministic schedule the random campaign mix cannot reliably reach:
// a per-task hang thorough enough to force a verifier timeout usually
// hangs the interior job itself, so no checkpoint exists when the retry
// launches. A timed crash window separates the two cleanly — five of six
// nodes fail-stop right after the second sub-graph's interior job
// reached f+1 agreement (persisting its checkpoint) but before the
// boundary job completes. One surviving node can serve at most one
// replica per sub-graph (replica binding), so f+1 completion is
// unreachable, the verifier times out, and the retry at r+1 must skip
// the checkpointed interior job and re-execute only the DAG suffix.
// Outputs must still match the clean baseline byte-for-byte (I7).
func TestCheckpointHitRecovery(t *testing.T) {
	cfg := DefaultCampaign()
	cfg.Core.Checkpoint = true
	baseline, err := Baseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := &Schedule{Events: make([]Event, 5)}
	for i := range sched.Events {
		sched.Events[i] = Event{
			Kind:   CrashRejoin,
			Node:   cluster.NodeID(fmt.Sprintf("node-%03d", i)),
			AtUs:   6_500_000,
			DownUs: 60_000_000,
			Salt:   uint64(31 + i),
		}
	}
	sr := RunSchedule(cfg, sched, baseline)
	for _, v := range sr.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if !sr.Verified {
		t.Fatalf("run did not verify: %s", sr.Err)
	}
	if sr.Recoveries["retry"] == 0 {
		t.Error("crash window did not force a verifier-timeout retry")
	}
	if sr.CkptSaves == 0 {
		t.Error("no checkpoint persisted before the crash window")
	}
	if sr.CkptHits == 0 {
		t.Error("re-launch did not consume the pre-crash checkpoint")
	}

	// Same schedule with checkpointing off: the retry re-executes the
	// whole sub-graph and may only be slower, never faster.
	off := cfg
	off.Core.Checkpoint = false
	srOff := RunSchedule(off, sched, baseline)
	if !srOff.Verified {
		t.Fatalf("checkpoint-off run did not verify: %s", srOff.Err)
	}
	if srOff.CkptSaves != 0 || srOff.CkptHits != 0 {
		t.Errorf("checkpointing off but saves=%d hits=%d", srOff.CkptSaves, srOff.CkptHits)
	}
	if sr.EndUs > srOff.EndUs {
		t.Errorf("checkpointed recovery slower than full re-execution: %d > %d us", sr.EndUs, srOff.EndUs)
	}
}

// TestCampaignByteIdenticalAcrossStorage replays the same seeded
// schedule batch on the campaign's own storage — tiny compressed blocks
// under a resident budget that forces spilling — and on the all-resident
// data plane, where every file is one unsealed tail, and requires the two
// campaign reports to be byte-for-byte identical. Faults are injected
// where workers handle records and digests are over canonical record
// bytes, so every mangle, recovery action and invariant outcome must land
// the same way regardless of how bytes rest on disk.
func TestCampaignByteIdenticalAcrossStorage(t *testing.T) {
	cfg := DefaultCampaign()
	cfg.Schedules = 12
	cfg.Core.Storage.SpillDir = t.TempDir()
	spill, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	resident := cfg
	resident.Core.Storage = dfs.Options{}
	base, err := RunCampaign(resident)
	if err != nil {
		t.Fatal(err)
	}

	a, b := base.Render(), spill.Render()
	if a != b {
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("reports diverge at line %d:\n  resident %q\n  spill    %q", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("reports diverge in length: %d vs %d bytes", len(a), len(b))
	}
}
