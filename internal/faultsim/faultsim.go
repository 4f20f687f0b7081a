// Package faultsim reproduces the paper's §6.3 fault-isolation study: a
// discrete-time simulator of resource allocation in a 250-node Hadoop
// cluster (3 slots per node) running a mix of large/medium/small
// replicated jobs, where a small set of Byzantine nodes produces
// commission faults with a configurable probability. Unlike the paper's
// standalone Java simulator, this one drives the production fault
// analyzer, suspicion table and blame rule from internal/verify, so the
// isolation behaviour measured is that of the real implementation.
package faultsim

import (
	"math/rand"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/verify"
)

// Mix gives the ratio of large : medium : small jobs in the workload.
// The paper's r1 is 6:3:1 and r2 is 2:2:1.
type Mix struct {
	Large, Medium, Small int
}

// R1 and R2 are the paper's two job-size ratios.
var (
	R1 = Mix{Large: 6, Medium: 3, Small: 1}
	R2 = Mix{Large: 2, Medium: 2, Small: 1}
)

// The paper's job shape: a job runs 1 to maxJobLen ticks, and each of its
// replicas takes 20–30 slots (large), 10–15 (medium) or 3–5 (small).
const (
	maxJobLen = 4
	smallMin  = 3
)

// Config parameterizes one simulation.
type Config struct {
	Nodes int // cluster size; paper: 250
	Slots int // slots per node; paper: 3
	// F is both the tolerated faults and the number of Byzantine nodes;
	// every job runs 3F+1 replicas (4 or 7).
	F int
	// CommissionProb is the per-replica-involvement probability that a
	// faulty node corrupts the replica's output (the x-axis of Fig 11).
	CommissionProb float64
	Mix            Mix
	// MaxTime bounds the simulation.
	MaxTime int
	// StopAtSaturation ends the run once |D| = f.
	StopAtSaturation bool
	// Probes enables §3.3 dummy probe jobs: once the analyzer holds a
	// multi-node suspect set, small jobs deliberately overlay half of it
	// to split the set faster.
	Probes bool
	// Allocation selects the placement policy (rotate = overlap
	// clusters, pack = minimal overlap); the isolation-speed ablation
	// compares them.
	Allocation Allocation
	Seed       int64
}

// withDefaults fills in the paper's setup.
func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 250
	}
	if c.Slots == 0 {
		c.Slots = 3
	}
	if c.F == 0 {
		c.F = 1
	}
	if c.Mix == (Mix{}) {
		c.Mix = R1
	}
	if c.MaxTime == 0 {
		c.MaxTime = 2000
	}
	return c
}

// replicas is the replica count of every job: 3f+1 (§3.3).
func (c Config) replicas() int { return 3*c.F + 1 }

// Sample is one per-tick observation of the suspicion population
// (Figs 12 and 13).
type Sample struct {
	Time     int
	Low      int
	Med      int
	High     int
	Suspects int // nodes with s > 0
}

// Result summarizes a run.
type Result struct {
	// JobsAtSaturation is the number of completed jobs when |D| first
	// reached f (Fig 11); -1 if it never did.
	JobsAtSaturation int
	// TimeAtSaturation is the tick at which that happened; -1 if never.
	TimeAtSaturation int
	JobsCompleted    int
	FaultsObserved   int
	Samples          []Sample
	// Suspects is the fault analyzer's final suspicion set.
	Suspects []cluster.NodeID
	// TrueFaulty is the set of actually faulty nodes, for scoring.
	TrueFaulty []cluster.NodeID
	// Isolated reports whether every true faulty node is suspected and
	// no honest node remains in the final suspicion set.
	Isolated bool
	// TimeToExactIsolation is the first tick at which the analyzer's
	// suspect set equals the true faulty set; -1 if never.
	TimeToExactIsolation int
	// ProbesLaunched counts §3.3 dummy probe jobs.
	ProbesLaunched int
	// Timeline is the suspicion audit trail of the run: every digest
	// mismatch, intersection step, and suspicion-score change, stamped
	// with the simulator tick it happened at.
	Timeline []analyze.AuditEvent
}

// RenderTimeline formats the run's convergence timeline, one event per
// line (see analyze.RenderTimeline); max <= 0 renders everything.
func (r *Result) RenderTimeline(max int) string {
	return analyze.RenderTimeline(r.Timeline, max)
}

type job struct {
	end      int
	replicas []verify.NodeSet
	faulty   []bool
}

// Run executes one seeded simulation.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	free := make([]int, cfg.Nodes)
	for i := range free {
		free[i] = cfg.Slots
	}
	faulty := make(map[int]bool, cfg.F)
	for len(faulty) < cfg.F {
		faulty[rng.Intn(cfg.Nodes)] = true
	}

	now := 0
	trail := analyze.NewAuditTrail(func() int64 { return int64(now) })
	fa := verify.NewFaultAnalyzer(cfg.F)
	fa.Audit = trail
	susp := verify.NewSuspicionTable(0)
	susp.Audit = trail
	res := &Result{JobsAtSaturation: -1, TimeAtSaturation: -1, TimeToExactIsolation: -1}
	for n := range faulty {
		res.TrueFaulty = append(res.TrueFaulty, nodeID(n))
	}
	sortNodeIDs(res.TrueFaulty)

	var running []*job
	offset := 0
	for ; now < cfg.MaxTime; now++ {
		// Complete due jobs.
		keep := running[:0]
		for _, j := range running {
			if j.end > now {
				keep = append(keep, j)
				continue
			}
			res.JobsCompleted++
			for ri, rep := range j.replicas {
				susp.RecordJob(rep.Sorted())
				for n := range rep {
					free[nodeIdx(n)]++
				}
				if j.faulty[ri] {
					res.FaultsObserved++
					fa.Audit.Add(analyze.AuditMismatch, rep.Sorted(),
						"job cluster returned a commission fault")
					verify.Blame(fa, susp, rep)
					if fa.Saturated() && res.JobsAtSaturation < 0 {
						res.JobsAtSaturation = res.JobsCompleted
						res.TimeAtSaturation = now
					}
				}
			}
		}
		running = keep
		if res.JobsAtSaturation >= 0 && cfg.StopAtSaturation {
			break
		}

		// Probe suspicious sets with dummy jobs (§3.3).
		if cfg.Probes {
			if targets := pickProbeTargets(fa); targets != nil {
				if j, ok := allocateProbe(cfg, rng, free, &offset, targets, faulty, now); ok {
					running = append(running, j)
					res.ProbesLaunched++
				}
			}
		}
		// Spawn jobs while capacity allows.
		for {
			slots := cfg.jobSlots(rng)
			j, ok := allocate(cfg, rng, free, &offset, slots, faulty, now)
			if !ok {
				break
			}
			running = append(running, j)
		}

		if res.TimeToExactIsolation < 0 && isolated(fa.Suspects(), faulty) {
			res.TimeToExactIsolation = now
		}

		h := susp.Histogram()
		res.Samples = append(res.Samples, Sample{
			Time:     now,
			Low:      h[verify.Low],
			Med:      h[verify.Med],
			High:     h[verify.High],
			Suspects: h[verify.Low] + h[verify.Med] + h[verify.High],
		})
	}

	res.Suspects = fa.Suspects()
	res.Isolated = isolated(res.Suspects, faulty)
	res.Timeline = trail.Events()
	return res
}

func (c Config) jobSlots(rng *rand.Rand) int {
	total := c.Mix.Large + c.Mix.Medium + c.Mix.Small
	draw := rng.Intn(total)
	lo, hi := smallMin, 5
	switch {
	case draw < c.Mix.Large:
		lo, hi = 20, 30
	case draw < c.Mix.Large+c.Mix.Medium:
		lo, hi = 10, 15
	}
	return lo + rng.Intn(hi-lo+1)
}

// allocate tries to place all replicas of a job (disjoint node sets, one
// slot per node per replica, round-robin from a rotating offset to
// overlap job clusters across the fleet). It returns ok=false without
// side effects when capacity is insufficient.
func allocate(cfg Config, rng *rand.Rand, free []int, offset *int, slots int, faulty map[int]bool, now int) (*job, bool) {
	j := &job{
		end:      now + 1 + rng.Intn(maxJobLen),
		replicas: make([]verify.NodeSet, cfg.replicas()),
		faulty:   make([]bool, cfg.replicas()),
	}
	taken := make(map[int]int) // node -> slots taken by this job overall
	usedByReplica := make([]map[int]bool, cfg.replicas())
	for ri := range j.replicas {
		j.replicas[ri] = make(verify.NodeSet)
		usedByReplica[ri] = make(map[int]bool)
		got := 0
		for probe := 0; probe < cfg.Nodes && got < slots; probe++ {
			n := (*offset + probe) % cfg.Nodes
			if usedByReplica[ri][n] {
				continue
			}
			// Replicas of one job must not share nodes (§5.3).
			shared := false
			for prev := 0; prev < ri; prev++ {
				if usedByReplica[prev][n] {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
			if free[n]-taken[n] <= 0 {
				continue
			}
			taken[n]++
			usedByReplica[ri][n] = true
			j.replicas[ri][nodeID(n)] = true
			got++
		}
		if got < slots {
			return nil, false // insufficient capacity; no slots consumed
		}
	}
	// Commit.
	for n, k := range taken {
		free[n] -= k
	}
	if cfg.Allocation == AllocRotate {
		*offset = (*offset + slots) % cfg.Nodes
	} else {
		*offset = 0
	}
	for ri, rep := range j.replicas {
		for n := range rep {
			if faulty[nodeIdx(n)] && rng.Float64() < cfg.CommissionProb {
				j.faulty[ri] = true
			}
		}
	}
	return j, true
}

func nodeID(i int) cluster.NodeID {
	return cluster.NodeID(nodeName(i))
}

func nodeName(i int) string {
	// Matches cluster.New's naming so core types interoperate.
	const digits = "0123456789"
	return "node-" + string([]byte{digits[i/100%10], digits[i/10%10], digits[i%10]})
}

func nodeIdx(id cluster.NodeID) int {
	s := string(id)
	n := 0
	for i := len("node-"); i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func sortNodeIDs(ids []cluster.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func isolated(suspects []cluster.NodeID, faulty map[int]bool) bool {
	if len(suspects) != len(faulty) {
		return false
	}
	for _, s := range suspects {
		if !faulty[nodeIdx(s)] {
			return false
		}
	}
	return true
}

// JobsToIsolate averages JobsAtSaturation over trials (Fig 11's y-axis).
// Runs that never saturate within MaxTime count as MaxTime-equivalent
// via their completed-job count.
func JobsToIsolate(cfg Config, trials int) float64 {
	total := 0
	for i := 0; i < trials; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		c.StopAtSaturation = true
		r := Run(c)
		if r.JobsAtSaturation >= 0 {
			total += r.JobsAtSaturation
		} else {
			total += r.JobsCompleted
		}
	}
	return float64(total) / float64(trials)
}
