package faultsim

import (
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/verify"
)

func TestAllocationString(t *testing.T) {
	if AllocRotate.String() != "rotate" || AllocPack.String() != "pack" {
		t.Error("Allocation names")
	}
}

func TestProbesLaunchAndIsolate(t *testing.T) {
	cfg := Config{CommissionProb: 0.4, Seed: 8, MaxTime: 400, Probes: true}
	r := Run(cfg)
	if r.ProbesLaunched == 0 {
		t.Fatal("no probe jobs launched")
	}
	if !r.Isolated {
		t.Errorf("probed run did not isolate: suspects=%v true=%v", r.Suspects, r.TrueFaulty)
	}
}

func TestProbesSpeedUpExactIsolation(t *testing.T) {
	// Average time-to-exact-isolation over several seeds: probe jobs
	// should help (or at least not hurt) because they split suspect
	// sets deliberately instead of waiting for accidental overlap.
	avg := func(probes bool) float64 {
		total, isolated := 0, 0
		for seed := int64(0); seed < 6; seed++ {
			r := Run(Config{CommissionProb: 0.35, Seed: 100 + seed*13, MaxTime: 500, Probes: probes})
			if r.TimeToExactIsolation >= 0 {
				total += r.TimeToExactIsolation
				isolated++
			} else {
				total += 500
			}
		}
		if isolated == 0 {
			t.Fatal("no run isolated")
		}
		return float64(total) / 6
	}
	with := avg(true)
	without := avg(false)
	if with > without*1.25 {
		t.Errorf("probes slowed isolation: with=%.1f without=%.1f", with, without)
	}
}

func TestPackAllocationStillWorks(t *testing.T) {
	r := Run(Config{CommissionProb: 0.8, Seed: 5, MaxTime: 300, Allocation: AllocPack})
	if r.JobsCompleted == 0 {
		t.Fatal("pack allocation ran no jobs")
	}
	if r.FaultsObserved > 0 && r.JobsAtSaturation < 0 {
		t.Error("observed faults but never saturated")
	}
}

func TestOverlapAblationRotateVsPack(t *testing.T) {
	// The paper's §4.2 scheduling claim: overlapping job clusters makes
	// fault isolation faster. Compare exact-isolation times.
	avg := func(alloc Allocation) float64 {
		total := 0
		for seed := int64(0); seed < 6; seed++ {
			r := Run(Config{CommissionProb: 0.5, Seed: 300 + seed*17, MaxTime: 600, Allocation: alloc})
			if r.TimeToExactIsolation >= 0 {
				total += r.TimeToExactIsolation
			} else {
				total += 600
			}
		}
		return float64(total) / 6
	}
	rotate := avg(AllocRotate)
	pack := avg(AllocPack)
	if rotate > pack*1.25 {
		t.Errorf("overlap allocation slower than packing: rotate=%.1f pack=%.1f", rotate, pack)
	}
	t.Logf("exact isolation time: rotate=%.1f pack=%.1f ticks", rotate, pack)
}

func TestAllocateProbePlacesTargetsInReplicaZero(t *testing.T) {
	cfg := (Config{Nodes: 30, Slots: 3, CommissionProb: 0, Seed: 1}).withDefaults()
	free := make([]int, cfg.Nodes)
	for i := range free {
		free[i] = cfg.Slots
	}
	offset := 0
	targets := []int{7, 11}
	j, ok := allocateProbe(cfg, newRng(2), free, &offset, targets, map[int]bool{}, 0)
	if !ok {
		t.Fatal("probe allocation failed")
	}
	for _, n := range targets {
		if !j.replicas[0][nodeID(n)] {
			t.Errorf("target %d missing from replica 0", n)
		}
		for ri := 1; ri < len(j.replicas); ri++ {
			if j.replicas[ri][nodeID(n)] {
				t.Errorf("target %d leaked into replica %d", n, ri)
			}
		}
	}
	// Replicas are pairwise node-disjoint.
	seen := map[string]int{}
	for _, rep := range j.replicas {
		for n := range rep {
			seen[string(n)]++
		}
	}
	for n, k := range seen {
		if k > 1 {
			t.Errorf("node %s in %d replicas", n, k)
		}
	}
}

func TestAllocateProbeFailsCleanlyWithoutCapacity(t *testing.T) {
	cfg := (Config{Nodes: 4, Slots: 1, CommissionProb: 0, Seed: 1}).withDefaults()
	free := []int{1, 1, 1, 1}
	offset := 0
	// 4 replicas x >=3 slots cannot fit disjointly on 4 single-slot nodes.
	_, ok := allocateProbe(cfg, newRng(2), free, &offset, []int{0}, map[int]bool{}, 0)
	if ok {
		t.Fatal("probe allocation should fail")
	}
	for i, f := range free {
		if f != 1 {
			t.Errorf("free[%d] = %d after failed probe allocation", i, f)
		}
	}
}

func TestPickProbeTargetsHalvesFirstBigSet(t *testing.T) {
	// Build an analyzer with a known multi-node suspect set.
	fa := newAnalyzerWithSet(t, "a", "b", "c", "d")
	targets := pickProbeTargets(fa)
	if len(targets) != 2 {
		t.Fatalf("targets = %v, want half of 4", targets)
	}
	// Singleton sets produce no probes.
	fa2 := newAnalyzerWithSet(t, "z")
	if pickProbeTargets(fa2) != nil {
		t.Error("singleton suspect set should not be probed")
	}
}

func newAnalyzerWithSet(t *testing.T, names ...string) *verify.FaultAnalyzer {
	t.Helper()
	fa := verify.NewFaultAnalyzer(1)
	s := make(verify.NodeSet)
	for _, n := range names {
		s[cluster.NodeID("node-0"+n)] = true
	}
	fa.Report(s)
	return fa
}
