package core

import (
	"reflect"
	"sort"
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
			for i := 1; i < cl.Len(); i++ {
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

// TestFaultAnalyzerDisjointInvariant property-checks Fig 7's core
// invariant: members of D stay pairwise disjoint and non-empty under any
// report sequence.
func TestFaultAnalyzerDisjointInvariant(t *testing.T) {
	// Deterministic pseudo-random set stream.
	seq := []NodeSet{}
	x := uint32(12345)
	next := func(n int) uint32 { x = x*1664525 + 1013904223; return x % uint32(n) }
	for i := 0; i < 200; i++ {
		s := make(NodeSet)
		for j := 0; j < int(next(6))+1; j++ {
			s[cluster.NodeID(string(rune('a'+next(15))))] = true
		}
		seq = append(seq, s)
	}
	for _, f := range []int{1, 2, 3} {
		fa := NewFaultAnalyzer(f)
		for i, s := range seq {
			fa.Report(s)
			d := fa.Disjoint()
			for a := 0; a < len(d); a++ {
				if len(d[a]) == 0 {
					t.Fatalf("f=%d step %d: empty member of D", f, i)
				}
				for b := a + 1; b < len(d); b++ {
					if d[a].Intersects(d[b]) {
						t.Fatalf("f=%d step %d: D members intersect: %v %v",
							f, i, d[a].Sorted(), d[b].Sorted())
					}
				}
			}
		}
	}
}

// TestMatcherAgreementInvariants property-checks the verifier: majority
// and deviants partition the completed set, majority is at least f+1,
// and every majority member shares one fingerprint.
func TestMatcherAgreementInvariants(t *testing.T) {
	x := uint32(99)
	next := func(n int) uint32 { x = x*1664525 + 1013904223; return x % uint32(n) }
	for trial := 0; trial < 100; trial++ {
		f := int(next(3))
		m := NewMatcher(f)
		reps := int(next(5)) + 1
		completed := make([]int, 0, reps)
		for rep := 0; rep < reps; rep++ {
			completed = append(completed, rep)
			// Each replica reports 1-3 keys with one of two payloads.
			for k := 0; k < int(next(3))+1; k++ {
				payload := "x"
				if next(4) == 0 {
					payload = "y"
				}
				m.Observe(report("s", rep, k, "t", 0, payload))
			}
		}
		maj, dev, ok := m.Agreement("s", completed)
		if !ok {
			continue
		}
		if len(maj) < f+1 {
			t.Fatalf("majority %v smaller than f+1=%d", maj, f+1)
		}
		if len(maj)+len(dev) != len(completed) {
			t.Fatalf("majority %v + deviants %v != completed %v", maj, dev, completed)
		}
		fp := m.Fingerprint("s", maj[0])
		for _, r := range maj[1:] {
			if m.Fingerprint("s", r) != fp {
				t.Fatal("majority members with different fingerprints")
			}
		}
		sorted := append([]int(nil), dev...)
		sort.Ints(sorted)
		if !reflect.DeepEqual(sorted, dev) {
			t.Fatal("deviants not sorted")
		}
	}
}
