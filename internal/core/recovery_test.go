package core

import (
	"reflect"
	"testing"

	"clusterbft/internal/cluster"
)

// chainScript has three GROUP stages; with verification points forced at
// avgs and counts it compiles into three chained sub-graphs c0 -> c1 -> c2.
const chainScript = `
w = LOAD 'data/weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
g2 = GROUP avgs BY a;
counts = FOREACH g2 GENERATE group AS a, COUNT(avgs) AS n;
g3 = GROUP counts BY n;
final = FOREACH g3 GENERATE group AS n, COUNT(counts) AS m;
STORE final INTO 'out/final';
`

// diamondScript splits avgs into two overlapping branches re-joined at the
// end; with points at avgs, hs and cs it compiles into a diamond
// c0 -> {c1, c2} -> c3.
const diamondScript = `
w = LOAD 'data/weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
hot = FILTER avgs BY a >= 5;
cold = FILTER avgs BY a <= 30;
gh = GROUP hot BY st;
hs = FOREACH gh GENERATE group AS st, COUNT(hot) AS n;
gc = GROUP cold BY st;
cs = FOREACH gc GENERATE group AS st, COUNT(cold) AS n;
j = JOIN hs BY st, cs BY st;
STORE j INTO 'out/j';
`

// liarHarness builds the offline-comparison repair scenario on n nodes:
// node-000 is a full-time commission liar and every other node is a 6x
// straggler, so the corrupt replica reliably finishes first and becomes
// the optimistic source for downstream sub-graphs.
func liarHarness(t *testing.T, nodes int, cfg Config) *harness {
	t.Helper()
	h := newRig(nodes, 3)
	if err := h.Cluster.SetAdversary("node-000", cluster.FaultCommission, 1.0, 5); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(h.Cluster.Nodes()); i++ {
		adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, int64(i))
		adv.SlowFactor = 6
		h.Cluster.Nodes()[i].Adversary = adv
	}
	h.Assure(cfg)
	return h
}

// TestRestartExhaustionTearsDownConsumers is the regression test for the
// restart-cascade early return: when a mid-chain sub-graph exhausts
// MaxAttempts inside restart(), its already-launched consumers must be
// torn down with it — the pre-fix code returned before touching them,
// leaving downstream sub-graphs to run to "verified" against the dead
// upstream's stale optimistic output.
func TestRestartExhaustionTearsDownConsumers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 3
	cfg.MaxAttempts = 1 // the first restart of any sub-graph exhausts it
	cfg.ForcePointAliases = []string{"avgs", "counts"}
	h := liarHarness(t, 3, cfg)

	_, err := h.Ctrl.Run(chainScript)
	if err == nil {
		t.Fatal("exhaustion must surface as a run error")
	}
	failed := false
	for _, cs := range h.Ctrl.v.Subs {
		if cs.Failed {
			failed = true
		}
	}
	if !failed {
		t.Error("no sub-graph marked failed despite the run error")
	}
	// The core invariant: a sub-graph may only count as verified when every
	// upstream it consumed from is verified too. Pre-fix, the terminal
	// sub-graph stays launched after its input sub-graph failed and later
	// "verifies" against the dead attempt's output.
	for _, cs := range h.Ctrl.v.Subs {
		if !cs.Verified {
			continue
		}
		for _, u := range cs.Upstream {
			if !h.Ctrl.v.Subs[u].Verified {
				t.Errorf("cluster %d verified but upstream %d is not (failed=%v launched=%v)",
					cs.ID, u, h.Ctrl.v.Subs[u].Failed, h.Ctrl.v.Subs[u].Launched)
			}
		}
	}
	// Consumers of a failed sub-graph must not be left running either.
	for _, cs := range h.Ctrl.v.Subs {
		if cs.Launched && !cs.Verified && !cs.Failed {
			t.Errorf("cluster %d left launched after upstream failure", cs.ID)
		}
	}
	if free, total := h.Engine.FreeSlotsTotal(), h.Cluster.TotalSlots(); free != total {
		t.Errorf("slots leaked across the teardown: free=%d total=%d", free, total)
	}
}

// TestRestartDiamondCascadeSingleCharge pins the cascade accounting on a
// diamond DAG: when both middle sub-graphs restart off the same deviant
// source in one verification event, their shared consumer is restarted
// (and charged) once per cascade, the run still verifies, and the final
// output matches a fault-free run.
func TestRestartDiamondCascadeSingleCharge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 3
	cfg.ForcePointAliases = []string{"avgs", "hs", "cs"}

	clean := newHarness(t, 16, 3, cfg)
	cleanRes, err := clean.Ctrl.Run(diamondScript)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.outputLines(t, cleanRes, "out/j")
	if len(want) == 0 {
		t.Fatal("diamond script produced no output; scenario broken")
	}

	h := liarHarness(t, 3, cfg)
	res, err := h.Ctrl.Run(diamondScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("diamond run did not verify")
	}
	if res.Clusters != 4 {
		t.Fatalf("expected 4 sub-graphs (diamond), got %d", res.Clusters)
	}
	if got := h.outputLines(t, res, "out/j"); !reflect.DeepEqual(got, want) {
		t.Errorf("verified output differs from clean run:\n got %v\nwant %v", got, want)
	}
	for _, cs := range h.Ctrl.v.Subs {
		// One optimistic launch plus at most one restart per upstream
		// verification round; double-charging in a single cascade blows
		// past this bound and toward MaxAttempts.
		if cs.TotalTries > 4 {
			t.Errorf("cluster %d charged %d attempts; cascade over-counting", cs.ID, cs.TotalTries)
		}
		if cs.TotalTries >= cfg.MaxAttempts {
			t.Errorf("cluster %d burned all %d attempts on a recoverable fault", cs.ID, cs.TotalTries)
		}
	}
	if free, total := h.Engine.FreeSlotsTotal(), h.Cluster.TotalSlots(); free != total {
		t.Errorf("slots leaked: free=%d total=%d", free, total)
	}
}

// TestRetryReArmsTimeoutPerAttempt guards the §4.2 step-6 loop: every
// re-initiated attempt gets a fresh verifier timer for its doubled
// timeout, keyed to the new attempt's sid. Two always-omitting nodes can
// hang the first attempts of both sub-graphs; if any attempt ran without
// its own timer the run would never drain past the hung replicas.
func TestRetryReArmsTimeoutPerAttempt(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 2
	cfg.TimeoutUs = 60_000_000
	cfg.MaxAttempts = 8
	h := newHarness(t, 6, 2, cfg)
	for _, n := range []cluster.NodeID{"node-000", "node-001"} {
		if err := h.Cluster.SetAdversary(n, cluster.FaultOmission, 1.0, 3); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("double omission should recover via timeout retries")
	}
	if res.Attempts <= res.Clusters {
		t.Fatalf("no re-initiation happened: attempts=%d clusters=%d", res.Attempts, res.Clusters)
	}
	// Each retried sub-graph must have doubled its timeout at least once;
	// the retry only fires because the fresh timer for the new sid did.
	doubled := false
	for _, cs := range h.Ctrl.v.Subs {
		if !cs.Verified {
			t.Errorf("cluster %d not verified", cs.ID)
		}
		if cs.TimeoutUs > cfg.TimeoutUs {
			doubled = true
		}
	}
	if !doubled {
		t.Error("no sub-graph carries a doubled timeout after retries")
	}
}

// TestRelaunchedAttemptStartsFromCleanOutput guards the attempt-scoped
// output namespace: a re-initiated attempt must never append onto a dead
// attempt's partial part-files, so the post-retry winner's output is
// byte-identical to a fault-free run (same records, same count — an
// append would duplicate records without changing the sorted key set).
func TestRelaunchedAttemptStartsFromCleanOutput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 2 // optimistic f+1: one commission fault forces a full re-run

	clean := newHarness(t, 16, 3, cfg)
	cleanRes, err := clean.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.outputLines(t, cleanRes, "out/counts")

	h := newHarness(t, 16, 3, cfg)
	if err := h.Cluster.SetAdversary("node-001", cluster.FaultCommission, 1.0, 7); err != nil {
		t.Fatal(err)
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts <= res.Clusters {
		t.Fatalf("scenario did not retry: attempts=%d clusters=%d", res.Attempts, res.Clusters)
	}
	got := h.outputLines(t, res, "out/counts")
	if len(got) != len(want) {
		t.Fatalf("record count %d != clean %d: relaunch appended onto stale output", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-retry winner output differs from clean run:\n got %v\nwant %v", got, want)
	}
}
