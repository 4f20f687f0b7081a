package core

import (
	"reflect"
	"testing"

	"clusterbft/internal/cluster"
)

// TestOfflineRestartOnDeviantSource drives the offline-comparison repair
// path end to end: the first replica of the upstream sub-graph to finish
// is the corrupt one (honest nodes are stragglers), the downstream
// sub-graph optimistically consumes its output, and once verification
// identifies the real winner the downstream sub-graph must be restarted
// on the verified data and still produce the correct result.
func TestOfflineRestartOnDeviantSource(t *testing.T) {
	build := func(corrupt bool) (*harness, *Controller) {
		// Three nodes, three replicas: the replica-exclusion constraint
		// pins each replica to one node.
		h := newRig(3, 3)
		cl := h.Cluster
		if corrupt {
			// node-000 lies; the two honest nodes are 6x stragglers, so
			// the corrupt replica reliably completes first and becomes
			// the optimistic source for the downstream sub-graph.
			if err := cl.SetAdversary("node-000", cluster.FaultCommission, 1.0, 5); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(cl.Nodes()); i++ {
				adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, int64(i))
				adv.SlowFactor = 6
				cl.Nodes()[i].Adversary = adv
			}
		}
		cfg := DefaultConfig()
		cfg.R = 3
		return h, h.Assure(cfg)
	}

	honest, _ := build(false)
	honestRes, err := honest.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	want := honest.outputLines(t, honestRes, "out/counts")

	h, ctrl := build(true)
	res, err := ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run did not verify")
	}
	if res.FaultyReplicas == 0 {
		t.Error("the lying replica was never flagged")
	}
	if res.Attempts <= res.Clusters {
		t.Errorf("downstream restart did not fire: attempts=%d clusters=%d", res.Attempts, res.Clusters)
	}
	got := h.outputLines(t, res, "out/counts")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("output corrupted despite verification:\n got %v\nwant %v", got, want)
	}
	// node-000 must be under suspicion.
	if ctrl.Susp.Level("node-000") == 0 {
		t.Error("corrupt node not suspected")
	}
}

// TestConservativeModeNeverConsumesUnverified checks that with Offline
// disabled, downstream sub-graphs wait for verification, so a corrupt
// first-finisher costs latency but never a restart.
func TestConservativeModeNeverConsumesUnverified(t *testing.T) {
	h := newRig(8, 3)
	if err := h.Cluster.SetAdversary("node-000", cluster.FaultCommission, 1.0, 5); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.R = 3
	cfg.Offline = false
	res, err := h.Assure(cfg).Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("not verified")
	}
	// Conservative mode: one attempt per sub-graph even with the fault
	// (r=3 outvotes it), since no optimistic work can be invalidated.
	if res.Attempts != res.Clusters {
		t.Errorf("attempts=%d clusters=%d; conservative mode should not restart", res.Attempts, res.Clusters)
	}
}

// TestSuspicionPersistsAcrossRuns checks the controller accumulates
// node history over a stream of scripts (how isolation sharpens, §4.3).
func TestSuspicionPersistsAcrossRuns(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
		t.Fatal(err)
	}
	var levels []float64
	for i := 0; i < 3; i++ {
		if _, err := h.Ctrl.Run(weatherScript); err != nil {
			t.Fatal(err)
		}
		levels = append(levels, h.Ctrl.Susp.Level("node-003"))
	}
	if levels[len(levels)-1] == 0 {
		t.Fatalf("suspicion never rose: %v", levels)
	}
	// The fault analyzer keeps narrowing; suspects must always include
	// the culprit.
	found := false
	for _, s := range h.Ctrl.FA.Suspects() {
		if s == "node-003" {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %v missing culprit", h.Ctrl.FA.Suspects())
	}
}

// TestEngineSpeculationUnderController verifies the controller tolerates
// engines with speculative execution enabled (backups must not confuse
// digest matching: per-task digests come from whichever attempt wins).
func TestEngineSpeculationUnderController(t *testing.T) {
	h := newRig(8, 3)
	adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 2)
	adv.SlowFactor = 15
	h.Cluster.Nodes()[2].Adversary = adv
	h.Engine.Speculation = true
	res, err := h.Assure(DefaultConfig()).Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("speculative engine run failed to verify")
	}
	if res.FaultyReplicas != 0 {
		t.Errorf("stragglers are benign; %d replicas flagged", res.FaultyReplicas)
	}
}
