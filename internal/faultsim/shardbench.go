package faultsim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"clusterbft/internal/bft"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/digest"
)

// ShardBench drives the sharded verdict plane (core.VerdictPool) with a
// synthetic verdict workload at datacenter scale: hundreds of nodes,
// thousands of replicated sub-graph attempts, commission faults seeded
// onto a fixed set of Byzantine nodes. It exercises exactly the hot
// path the sharded control tier parallelizes — digest matching, online
// deviant detection, offline f+1 agreement — plus the merge layer the
// design keeps serial: cross-shard suspicion/FaultAnalyzer updates and
// global eviction, which feeds back into the placement of every
// subsequent batch (the scheduling machinery of this harness).
//
// Scaling is reported two ways. WallNs is the host wall-clock of the
// processing loop — honest but hardware-dependent (a single-core
// container cannot show parallel speedup). The deterministic numbers
// are work units: each shard counts one unit per report (the per-key
// tally update of the online comparison) and one per vote a verdict
// fingerprints, the producer counts one unit per submission and one
// per merged event. SpanUnits is the critical path with one core per
// shard — serial units plus the busiest pipeline — so
// SpanUnits(1)/SpanUnits(N) is the throughput scaling the partitioning
// achieves, byte-identical across runs and exactly reproducible at any
// shard count.

// ShardBenchConfig parameterizes one workload.
type ShardBenchConfig struct {
	Nodes          int     // untrusted tier size (the experiment uses 250+)
	Slots          int     // nodes per replica job cluster
	F              int     // fault tolerance; f+1 agreement
	Shards         int     // verdict pipelines
	Clusters       int     // replicated sub-graph attempts to verify
	Replicas       int     // replication degree r per attempt
	Keys           int     // digest chunks per replica stream
	FaultyNodes    int     // Byzantine node count
	CommissionProb float64 // per-replica corruption probability when a faulty node hosts it
	Threshold      float64 // suspicion eviction threshold (> 0 enables eviction)
	Batch          int     // attempts per merge round
	BFTSequence    bool    // order each shard's evidence batch through its own PBFT group
	Seed           int64
}

// DefaultShardBench is the scaling experiment's workload: 250 nodes,
// r=4 attempts over 48-chunk digest streams, a small Byzantine
// population, eviction on.
func DefaultShardBench() ShardBenchConfig {
	return ShardBenchConfig{
		Nodes:          250,
		Slots:          3,
		F:              1,
		Shards:         1,
		Clusters:       384,
		Replicas:       4,
		Keys:           48,
		FaultyNodes:    6,
		CommissionProb: 0.35,
		Threshold:      0.30,
		Batch:          32,
		Seed:           11,
	}
}

// ShardBenchResult summarizes one run. Every field except WallNs is
// deterministic for a fixed (config, seed).
type ShardBenchResult struct {
	Shards      int
	Reports     int    // digest reports submitted
	Verdicts    int    // agreement decisions computed shard-side
	Evidence    int    // deviant-replica events merged
	Convictions int    // |FaultAnalyzer single-node disjoint sets|
	Evicted     int    // nodes over the suspicion threshold
	WorkTotal   uint64 // sum of shard work units
	WorkMax     uint64 // busiest pipeline
	SerialUnits uint64 // producer submissions + merged events
	SpanUnits   uint64 // SerialUnits + WorkMax: critical path, one core per shard
	WallNs      int64
	BFTCommits  int
	// Fingerprint hashes the merged evidence stream (stamps, deviants,
	// verdicts) and the final suspicion/analyzer state. Equal
	// fingerprints across shard counts prove the cross-shard merge
	// reaches the single-shard verdict state.
	Fingerprint string
}

// ShardBench runs the workload and returns the measurements.
func ShardBench(cfg ShardBenchConfig) *ShardBenchResult {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	faulty := make(map[cluster.NodeID]bool, cfg.FaultyNodes)
	for _, i := range rng.Perm(cfg.Nodes)[:cfg.FaultyNodes] {
		faulty[nodeID(i)] = true
	}

	pool := core.NewVerdictPool(cfg.F, cfg.Shards, nil)
	defer pool.Close()
	fa := core.NewFaultAnalyzer(cfg.F)
	susp := core.NewSuspicionTable(cfg.Threshold)

	var net *bft.Network
	var groups []*bft.Group
	if cfg.BFTSequence {
		net = bft.NewNetwork()
		for s := 0; s < cfg.Shards; s++ {
			groups = append(groups, bft.NewGroupOn(net, fmt.Sprintf("shard-%d", s), cfg.F,
				func(int) bft.StateMachine { return &seqSM{} }))
		}
	}

	honest := func(c, k int) digest.Sum {
		return sha256.Sum256([]byte(fmt.Sprintf("c%d/k%d", c, k)))
	}
	res := &ShardBenchResult{Shards: cfg.Shards}
	fp := sha256.New()
	placement := make(map[string][][]cluster.NodeID)
	completed := make([]int, cfg.Replicas)
	for i := range completed {
		completed[i] = i
	}

	start := time.Now()
	for base := 0; base < cfg.Clusters; base += cfg.Batch {
		end := base + cfg.Batch
		if end > cfg.Clusters {
			end = cfg.Clusters
		}
		// Place this round's attempts on the nodes still in the
		// inclusion list: globally-decided evictions feed back into
		// every shard's scheduling. The eviction sequence is a pure
		// function of the merged evidence stream, so placement — and
		// with it the whole run — stays identical at any shard count.
		var included []int
		for i := 0; i < cfg.Nodes; i++ {
			if !susp.Excluded(nodeID(i)) {
				included = append(included, i)
			}
		}
		for c := base; c < end; c++ {
			sid := fmt.Sprintf("bench-c%d-a0", c)
			perm := rng.Perm(len(included))
			reps := make([][]cluster.NodeID, cfg.Replicas)
			for r := 0; r < cfg.Replicas; r++ {
				nodes := make([]cluster.NodeID, cfg.Slots)
				for s := 0; s < cfg.Slots; s++ {
					nodes[s] = nodeID(included[perm[(r*cfg.Slots+s)%len(perm)]])
				}
				sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
				reps[r] = nodes
			}
			placement[sid] = reps
			// A replica hosted on a Byzantine node corrupts a key subset
			// with CommissionProb (coins drawn unconditionally to keep
			// rng consumption placement-independent).
			corrupt := make([]bool, cfg.Replicas)
			for r := 0; r < cfg.Replicas; r++ {
				coin := rng.Float64()
				hostsFaulty := false
				for _, n := range reps[r] {
					if faulty[n] {
						hostsFaulty = true
					}
				}
				corrupt[r] = hostsFaulty && coin < cfg.CommissionProb
			}
			for k := 0; k < cfg.Keys; k++ {
				for r := 0; r < cfg.Replicas; r++ {
					sum := honest(c, k)
					if corrupt[r] && k%3 == 0 {
						sum = sha256.Sum256([]byte(fmt.Sprintf("bad/c%d/k%d/r%d", c, k, r)))
					}
					pool.Submit(digest.Report{
						Key:     digest.Key{SID: sid, Point: 1, Task: "m0", Chunk: k},
						Replica: r,
						Final:   k == cfg.Keys-1,
						Records: 1,
						Sum:     sum,
					})
					res.Reports++
					res.SerialUnits++
				}
			}
			pool.RequestVerdict(sid, completed)
			res.SerialUnits++
		}
		// Merge layer: drain all pipelines, apply evidence in global
		// stamp order, optionally sequencing each shard's batch through
		// its own BFT group first.
		events := pool.Sync()
		res.SerialUnits += uint64(len(events))
		if cfg.BFTSequence {
			res.BFTCommits += sequenceBatches(net, groups, events, fp)
		}
		for _, ev := range events {
			switch ev.Kind {
			case core.VerdictDeviant:
				nodes := placement[ev.SID][ev.Replica]
				susp.RecordFault(nodes)
				fa.Report(core.NewNodeSet(nodes...))
				res.Evidence++
				fmt.Fprintf(fp, "D|%d|%s|%d\n", ev.Stamp, ev.SID, ev.Replica)
			case core.VerdictDecision:
				res.Verdicts++
				fmt.Fprintf(fp, "V|%d|%s|%v|%v|%v\n", ev.Stamp, ev.SID, ev.OK, ev.Majority, ev.Deviants)
			}
		}
		for c := base; c < end; c++ {
			sid := fmt.Sprintf("bench-c%d-a0", c)
			pool.Forget(sid)
			delete(placement, sid)
		}
	}
	res.WallNs = time.Since(start).Nanoseconds()

	for _, w := range pool.Work() {
		res.WorkTotal += w
		if w > res.WorkMax {
			res.WorkMax = w
		}
	}
	res.SpanUnits = res.SerialUnits + res.WorkMax
	for _, n := range fa.Suspects() {
		fmt.Fprintf(fp, "S|%s\n", n)
	}
	res.Convictions = len(fa.Suspects())
	for i := 0; i < cfg.Nodes; i++ {
		if susp.Excluded(nodeID(i)) {
			res.Evicted++
			fmt.Fprintf(fp, "E|%s\n", nodeName(i))
		}
	}
	res.Fingerprint = hex.EncodeToString(fp.Sum(nil)[:12])
	return res
}

// sequenceBatches orders each shard's evidence batch through that
// shard's PBFT group, all groups running concurrently over the shared
// network; returns the number of agreed commits. The agreed results
// fold into the run fingerprint, so a diverging group breaks replay.
func sequenceBatches(net *bft.Network, groups []*bft.Group, events []core.VerdictEvent, fp hashWriter) int {
	batches := make([][]byte, len(groups))
	for _, ev := range events {
		if ev.Kind != core.VerdictDeviant {
			continue
		}
		batches[ev.Shard] = append(batches[ev.Shard],
			[]byte(fmt.Sprintf("%d|%s|%d\n", ev.Stamp, ev.SID, ev.Replica))...)
	}
	type outcome struct {
		shard  int
		result []byte
	}
	var results []outcome
	pending := 0
	for s, op := range batches {
		if len(op) == 0 {
			continue
		}
		s := s
		pending++
		if err := groups[s].Start(op, func(res []byte) {
			pending--
			results = append(results, outcome{shard: s, result: res})
		}); err != nil {
			panic(fmt.Sprintf("faultsim: shard %d bft start: %v", s, err))
		}
	}
	net.RunWhile(2_000_000, func() bool { return pending > 0 })
	if pending > 0 {
		panic("faultsim: bft sequencing did not settle")
	}
	sort.Slice(results, func(i, j int) bool { return results[i].shard < results[j].shard })
	for _, r := range results {
		fmt.Fprintf(fp, "B|%d|%x\n", r.shard, sha256.Sum256(r.result))
	}
	return len(results)
}

type hashWriter interface {
	Write(p []byte) (int, error)
}

// seqSM is the replicated state machine of a shard's sequencing group:
// it appends each ordered evidence batch to a running log digest, so
// equal results across replicas certify equal evidence order.
type seqSM struct {
	log digest.Sum
}

func (m *seqSM) Apply(op []byte) []byte {
	h := sha256.New()
	h.Write(m.log[:])
	h.Write(op)
	h.Sum(m.log[:0])
	return append([]byte(nil), m.log[:8]...)
}
