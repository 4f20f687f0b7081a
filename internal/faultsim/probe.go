package faultsim

import (
	"math/rand"

	"clusterbft/internal/verify"
)

// Allocation selects the slot-placement policy, the knob behind the
// paper's observation that deliberately overlapping job clusters speeds
// fault isolation (§4.2: "the scheduling strategy we use is to cause as
// many intersections as there are resource units in a node"; "other
// strategies can also be used to overlap clusters which we intend to
// explore in future work").
type Allocation uint8

const (
	// AllocRotate (default) starts each job's placement at a rotating
	// offset, maximizing how many distinct job clusters intersect on a
	// node.
	AllocRotate Allocation = iota
	// AllocPack always fills from node 0, so concurrent jobs overlap
	// only by necessity — the low-overlap baseline for the ablation.
	AllocPack
)

// String names the policy.
func (a Allocation) String() string {
	if a == AllocPack {
		return "pack"
	}
	return "rotate"
}

// probePlacement biases a probe job's first replica onto half of a
// suspicious set (the paper's §3.3 "dummy jobs can be used to further
// probe nodes in such a suspicious replication group"): if the probe
// faults, the intersection narrows the suspect set; honest probes let
// bystanders' suspicion decay faster.
type probePlacement struct {
	targets []int // node indices from the suspicious set to include
}

// pickProbeTargets selects up to half the members of the first
// non-singleton disjoint suspect set, in deterministic order.
func pickProbeTargets(fa *verify.FaultAnalyzer) []int {
	for _, x := range fa.Disjoint() {
		if len(x) < 2 {
			continue
		}
		ids := x.Sorted()
		half := (len(ids) + 1) / 2
		out := make([]int, 0, half)
		for _, id := range ids[:half] {
			out = append(out, nodeIdx(id))
		}
		return out
	}
	return nil
}

// allocateProbe places a small probe job whose first replica contains
// the target suspects (plus filler) and whose remaining replicas use
// fresh nodes. Placement rules (capacity, per-job disjoint replicas)
// match allocate. Returns ok=false without side effects when the
// targets or capacity are unavailable.
func allocateProbe(cfg Config, rng *rand.Rand, free []int, offset *int, targets []int, faulty map[int]bool, now int) (*job, bool) {
	slots := max(smallMin, len(targets))
	j := &job{
		end:      now + 1, // probes are short
		replicas: make([]verify.NodeSet, cfg.replicas()),
		faulty:   make([]bool, cfg.replicas()),
	}
	taken := make(map[int]int)
	used := make([]map[int]bool, len(j.replicas))
	for ri := range j.replicas {
		j.replicas[ri] = make(verify.NodeSet)
		used[ri] = make(map[int]bool)
	}
	place := func(ri, n int) bool {
		if used[ri][n] {
			return false
		}
		for prev := range used {
			if prev != ri && used[prev][n] {
				return false
			}
		}
		if free[n]-taken[n] <= 0 {
			return false
		}
		taken[n]++
		used[ri][n] = true
		j.replicas[ri][nodeID(n)] = true
		return true
	}
	// Replica 0 hosts the suspects under test.
	for _, n := range targets {
		if !place(0, n) {
			return nil, false
		}
	}
	for ri := range j.replicas {
		need := slots - len(j.replicas[ri])
		for probe := 0; probe < cfg.Nodes && need > 0; probe++ {
			n := (*offset + probe) % cfg.Nodes
			if place(ri, n) {
				need--
			}
		}
		if need > 0 {
			return nil, false
		}
	}
	for n, k := range taken {
		free[n] -= k
	}
	*offset = (*offset + slots) % cfg.Nodes
	for ri, rep := range j.replicas {
		for n := range rep {
			if faulty[nodeIdx(n)] && rng.Float64() < cfg.CommissionProb {
				j.faulty[ri] = true
			}
		}
	}
	return j, true
}
