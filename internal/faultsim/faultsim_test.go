package faultsim

import (
	"math/rand"
	"testing"

	"clusterbft/internal/cluster"
)

func TestDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.Nodes != 250 || c.Slots != 3 || c.F != 1 || c.replicas() != 4 {
		t.Errorf("defaults = %+v, %d replicas", c, c.replicas())
	}
	if c.Mix != R1 {
		t.Errorf("default mix = %+v", c.Mix)
	}
	if n := len(Run(Config{MaxTime: 1}).TrueFaulty); n != 1 {
		t.Errorf("f=1 runs %d faulty nodes", n)
	}
	c2 := (Config{F: 2}).withDefaults()
	if n := len(Run(Config{F: 2, MaxTime: 1}).TrueFaulty); c2.replicas() != 7 || n != 2 {
		t.Errorf("f=2 runs %d replicas, %d faulty nodes", c2.replicas(), n)
	}
}

func TestNodeNaming(t *testing.T) {
	if nodeName(0) != "node-000" || nodeName(249) != "node-249" || nodeName(7) != "node-007" {
		t.Errorf("names: %s %s %s", nodeName(0), nodeName(249), nodeName(7))
	}
	for _, i := range []int{0, 7, 42, 249} {
		if nodeIdx(nodeID(i)) != i {
			t.Errorf("round trip failed for %d", i)
		}
	}
}

func TestRunSaturatesAtHighProbability(t *testing.T) {
	r := Run(Config{CommissionProb: 1.0, Seed: 1, StopAtSaturation: true})
	if r.JobsAtSaturation < 0 {
		t.Fatal("p=1.0 should saturate")
	}
	// With an always-firing fault, the first completed batch containing
	// the faulty node saturates: only a handful of jobs.
	if r.JobsAtSaturation > 60 {
		t.Errorf("saturation after %d jobs; expected fast isolation", r.JobsAtSaturation)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(Config{CommissionProb: 0.7, Seed: 42, MaxTime: 120})
	b := Run(Config{CommissionProb: 0.7, Seed: 42, MaxTime: 120})
	if a.JobsCompleted != b.JobsCompleted || a.JobsAtSaturation != b.JobsAtSaturation {
		t.Error("same seed must reproduce identical runs")
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample streams differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
}

func TestIsolationConvergesToTrueFaultyNode(t *testing.T) {
	r := Run(Config{CommissionProb: 0.8, Seed: 3, MaxTime: 400})
	if len(r.Suspects) == 0 {
		t.Fatal("no suspects after 400 ticks at p=0.8")
	}
	// The true faulty node must be among the suspects.
	want := map[cluster.NodeID]bool{}
	for _, n := range r.TrueFaulty {
		want[n] = true
	}
	found := false
	for _, s := range r.Suspects {
		if want[s] {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %v miss true faulty %v", r.Suspects, r.TrueFaulty)
	}
	if !r.Isolated {
		t.Errorf("expected exact isolation, suspects=%v true=%v", r.Suspects, r.TrueFaulty)
	}
}

func TestHigherProbabilityIsolatesFaster(t *testing.T) {
	base := Config{Seed: 11}
	slow := base
	slow.CommissionProb = 0.2
	fast := base
	fast.CommissionProb = 1.0
	js := JobsToIsolate(slow, 3)
	jf := JobsToIsolate(fast, 3)
	if jf > js {
		t.Errorf("p=1.0 needed %.1f jobs, p=0.2 needed %.1f; expected faster isolation at higher p", jf, js)
	}
}

func TestF2IsolatesBothFaultyNodes(t *testing.T) {
	r := Run(Config{F: 2, CommissionProb: 0.9, Seed: 21, MaxTime: 600})
	if len(r.TrueFaulty) != 2 {
		t.Fatalf("true faulty = %v", r.TrueFaulty)
	}
	if !r.Isolated {
		t.Errorf("f=2 did not isolate: suspects=%v true=%v", r.Suspects, r.TrueFaulty)
	}
}

func TestF2Saturation(t *testing.T) {
	// |D| = 2 requires two disjoint faulty job clusters; it still happens
	// within a bounded number of jobs at moderate probability.
	avg := JobsToIsolate(Config{F: 2, CommissionProb: 0.5, Seed: 21}, 5)
	if avg <= 0 || avg > 500 {
		t.Errorf("f=2 average jobs to isolate = %.1f", avg)
	}
}

func TestSuspectPopulationStopsGrowingAfterSaturation(t *testing.T) {
	r := Run(Config{CommissionProb: 0.8, Seed: 9, MaxTime: 300})
	if r.TimeAtSaturation < 0 {
		t.Fatal("did not saturate")
	}
	// After saturation the set of nodes with s > 0 must not grow by more
	// than the final refinement (it can only shrink or stay).
	maxAfter := 0
	for _, s := range r.Samples {
		if s.Time > r.TimeAtSaturation+cap0(r) && s.Suspects > maxAfter {
			maxAfter = s.Suspects
		}
	}
	atSat := 0
	for _, s := range r.Samples {
		if s.Time == r.TimeAtSaturation {
			atSat = s.Suspects
		}
	}
	// Jobs started before saturation may still complete and add faults
	// for at most one more job length; beyond that the population is
	// bounded by the saturation-time population.
	if maxAfter > atSat+60 {
		t.Errorf("suspect population grew after saturation: %d -> %d", atSat, maxAfter)
	}
}

func cap0(r *Result) int { return 5 }

func TestHighSuspicionConvergesToFaulty(t *testing.T) {
	// Fig 12's claim: over time only the real faulty nodes stay High.
	r := Run(Config{CommissionProb: 0.9, Seed: 14, MaxTime: 500})
	last := r.Samples[len(r.Samples)-1]
	if last.High == 0 {
		t.Error("no High-suspicion nodes at end of run")
	}
	if last.High > len(r.TrueFaulty)+2 {
		t.Errorf("High population %d not narrowed to ~%d faulty nodes", last.High, len(r.TrueFaulty))
	}
}

func TestAllocationRespectsCapacityAndDisjointness(t *testing.T) {
	cfg := (Config{Nodes: 20, Slots: 2, CommissionProb: 0, Seed: 5, MaxTime: 50}).withDefaults()
	free := make([]int, cfg.Nodes)
	for i := range free {
		free[i] = cfg.Slots
	}
	offset := 0
	j, ok := allocate(cfg, newRng(5), free, &offset, 5, map[int]bool{}, 0)
	if !ok {
		t.Fatal("allocation failed with ample capacity")
	}
	seen := map[cluster.NodeID]int{}
	for ri, rep := range j.replicas {
		if len(rep) != 5 {
			t.Errorf("replica %d has %d nodes, want 5", ri, len(rep))
		}
		for n := range rep {
			seen[n]++
		}
	}
	for n, k := range seen {
		if k > 1 {
			t.Errorf("node %v serves %d replicas of one job", n, k)
		}
	}
	// 4 replicas x 5 slots consumed.
	total := 0
	for _, f := range free {
		total += cfg.Slots - f
	}
	if total != 20 {
		t.Errorf("slots consumed = %d, want 20", total)
	}
}

func TestAllocationFailsWithoutSideEffects(t *testing.T) {
	cfg := (Config{Nodes: 3, Slots: 1, CommissionProb: 0, Seed: 5}).withDefaults()
	free := []int{1, 1, 1}
	offset := 0
	// 4 replicas x 2 slots each cannot fit disjointly on 3 nodes.
	_, ok := allocate(cfg, newRng(1), free, &offset, 2, map[int]bool{}, 0)
	if ok {
		t.Fatal("allocation should fail")
	}
	for i, f := range free {
		if f != 1 {
			t.Errorf("free[%d] = %d after failed allocation", i, f)
		}
	}
}

func TestSamplesCoverRun(t *testing.T) {
	r := Run(Config{CommissionProb: 0.5, Seed: 2, MaxTime: 100})
	if len(r.Samples) != 100 {
		t.Errorf("samples = %d, want 100", len(r.Samples))
	}
	for i, s := range r.Samples {
		if s.Time != i {
			t.Fatalf("sample %d time = %d", i, s.Time)
		}
	}
}

func TestZeroProbabilityNeverSaturates(t *testing.T) {
	r := Run(Config{CommissionProb: 0, Seed: 4, MaxTime: 100})
	if r.JobsAtSaturation != -1 || r.FaultsObserved != 0 {
		t.Errorf("p=0 should observe nothing: %+v", r)
	}
	if len(r.Suspects) != 0 {
		t.Errorf("suspects = %v", r.Suspects)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
