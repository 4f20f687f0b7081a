package core

import (
	"hash/fnv"
	"sort"
	"strconv"

	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
)

// The sharded control tier (DESIGN.md §13). One Matcher serializes every
// digest verdict of a run — the throughput ceiling the ROADMAP names for
// "millions of users". A VerdictPool partitions that work across N
// independent shard pipelines, each owning a private Matcher and a
// worker goroutine, keyed by FNV-1a hash of the sub-graph attempt id
// (sid). Partitioning by sid is sound because every Matcher operation is
// single-sid: replicas of one attempt only ever compare against each
// other, so two shards never need each other's digest vectors.
//
// The pool is lock-free with respect to its shards: there is no shared
// mutex anywhere on the digest hot path. The only synchronization is
// the per-shard FIFO channel (submission) and a barrier token (Sync).
// The protocol is single-producer: exactly one goroutine — the
// simulation goroutine in the controller, the driving loop in the
// faultsim harness — calls Submit/RequestVerdict/Sync, and it may read
// shard state directly (MatcherFor, Forget) only between a Sync and the
// next Submit, when every worker is provably quiescent. The channel
// round-trips establish the happens-before edges, so the race detector
// accepts the whole protocol without a single lock.
//
// Determinism: every submission is stamped with a monotonic sequence
// number by the producer. Workers record suspicion evidence and
// checkpoint-agreement events into a per-shard buffer; Sync drains all
// buffers and merges them in stamp order, which assigns the global
// order of AuditTrail/suspicion effects at the merge layer rather than
// at emit time. Because sharding is per-sid, each sid's report
// subsequence is identical at any shard count — so the merged evidence
// stream, and everything downstream of it (FaultAnalyzer intersection,
// suspicion levels, eviction), is byte-identical whether the pool runs
// 1 shard or 8.

// VerdictEventKind tags one entry of the merged evidence stream.
type VerdictEventKind uint8

const (
	// VerdictDeviant reports a replica whose digests left the f+1
	// majority for its sid (first detection only; the shard dedupes).
	VerdictDeviant VerdictEventKind = iota
	// VerdictCkpt reports f+1 agreement reached on a checkpoint-point
	// key; the merge layer may persist the interior output.
	VerdictCkpt
	// VerdictDecision carries a full Agreement verdict computed
	// shard-side for a RequestVerdict call (used by the throughput
	// harness; the controller computes verdicts inline post-sync).
	VerdictDecision
)

// VerdictEvent is one merged evidence item. Stamp is the global
// submission sequence number assigned by the producer; Sync returns
// events sorted by it.
type VerdictEvent struct {
	Stamp   uint64
	Shard   int
	SID     string
	Kind    VerdictEventKind
	Replica int        // VerdictDeviant
	Key     digest.Key // VerdictCkpt

	// VerdictDecision payload.
	Majority []int
	Deviants []int
	OK       bool
}

type verdictReq struct {
	sid       string
	completed []int
}

// shardMsg is the single message type a shard worker receives: exactly
// one of report (Observe: store + online comparison), verdict
// (Agreement), or sync (barrier token, acknowledged by closing the
// channel) is set.
type shardMsg struct {
	report  digest.Report
	stamp   uint64
	verdict *verdictReq
	sync    chan struct{}
}

// verdictShard is one pipeline: a worker goroutine draining ch into a
// private Matcher. All fields below ch are worker-owned while the
// worker runs; the producer may touch them only post-Sync.
type verdictShard struct {
	idx  int
	ch   chan shardMsg
	done chan struct{}

	m *Matcher
	// deviant dedupes first detections per sid (a replica bitmask) so
	// the event stream carries each piece of evidence once, mirroring
	// the idempotence of markFaulty.
	deviant map[string]uint64
	// votes counts reports accumulated per sid: the digests a verdict
	// request rolls into fingerprints. With one unit per report for the
	// online comparison it gives the deterministic work accounting the
	// scaling experiment reports.
	votes  map[string]int
	events []VerdictEvent
	work   uint64

	obsReports  *obs.Counter
	obsDeviants *obs.Counter
	obsWork     *obs.Counter
}

// VerdictPool runs N shard pipelines. See the package comment above for
// the single-producer protocol.
type VerdictPool struct {
	f      int
	shards []*verdictShard
	stamp  uint64
	closed bool

	obsSyncs *obs.Counter
}

// NewVerdictPool starts n shard workers (clamped to >= 1) for
// f-tolerant matching. reg, when non-nil, registers per-shard labeled
// counter families (core.shard.reports{shard="i"}, …); nil costs
// nothing.
func NewVerdictPool(f, n int, reg *obs.Registry) *VerdictPool {
	if n < 1 {
		n = 1
	}
	p := &VerdictPool{f: f}
	if reg != nil {
		p.obsSyncs = reg.Counter("core.shard.syncs")
	}
	for i := 0; i < n; i++ {
		s := &verdictShard{
			idx:     i,
			ch:      make(chan shardMsg, 256),
			done:    make(chan struct{}),
			m:       NewMatcher(f),
			deviant: make(map[string]uint64),
			votes:   make(map[string]int),
		}
		if reg != nil {
			v := reg.With("shard", strconv.Itoa(i))
			s.obsReports = v.Counter("core.shard.reports")
			s.obsDeviants = v.Counter("core.shard.deviants")
			s.obsWork = v.Counter("core.shard.work")
		}
		p.shards = append(p.shards, s)
		go s.run()
	}
	return p
}

// Shards returns the pipeline count.
func (p *VerdictPool) Shards() int { return len(p.shards) }

// ShardOf is the partitioning function: FNV-1a over the sid, mod N.
func (p *VerdictPool) ShardOf(sid string) int {
	h := fnv.New32a()
	h.Write([]byte(sid))
	return int(h.Sum32() % uint32(len(p.shards)))
}

// Submit routes one digest report to its sid's shard. Producer-only.
func (p *VerdictPool) Submit(r digest.Report) {
	p.stamp++
	s := p.shards[p.ShardOf(r.Key.SID)]
	s.ch <- shardMsg{report: r, stamp: p.stamp}
}

// RequestVerdict asks the owning shard to run the offline f+1 agreement
// over the completed replicas of sid; the decision arrives as a
// VerdictDecision event at the next Sync. Producer-only.
func (p *VerdictPool) RequestVerdict(sid string, completed []int) {
	p.stamp++
	s := p.shards[p.ShardOf(sid)]
	s.ch <- shardMsg{verdict: &verdictReq{sid: sid, completed: completed}, stamp: p.stamp}
}

// Sync drains every shard pipeline (barrier) and returns the merged
// evidence stream in global submission order. After Sync returns — and
// until the next Submit/RequestVerdict — the producer may read shard
// state directly via MatcherFor and mutate it via Forget.
func (p *VerdictPool) Sync() []VerdictEvent {
	toks := make([]chan struct{}, len(p.shards))
	for i, s := range p.shards {
		toks[i] = make(chan struct{})
		s.ch <- shardMsg{sync: toks[i]}
	}
	for _, t := range toks {
		<-t
	}
	p.obsSyncs.Inc()
	var merged []VerdictEvent
	for _, s := range p.shards {
		merged = append(merged, s.events...)
		s.events = s.events[:0]
	}
	// Stamps are globally unique per submission; events sharing a stamp
	// come from one report on one shard and were appended in
	// deterministic order, which the stable sort preserves.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Stamp < merged[j].Stamp })
	return merged
}

// MatcherFor returns the private Matcher owning sid. Valid only between
// a Sync and the next Submit.
func (p *VerdictPool) MatcherFor(sid string) *Matcher {
	return p.shards[p.ShardOf(sid)].m
}

// Forget drops all shard state for one attempt. Valid only between a
// Sync and the next Submit.
func (p *VerdictPool) Forget(sid string) {
	s := p.shards[p.ShardOf(sid)]
	s.m.Forget(sid)
	delete(s.deviant, sid)
	delete(s.votes, sid)
}

// Work returns each shard's deterministic work-unit counter (one unit
// per report observed plus one per vote a verdict request
// fingerprints). Valid only post-Sync.
func (p *VerdictPool) Work() []uint64 {
	out := make([]uint64, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.work
	}
	return out
}

// Stamps returns the number of submissions so far (reports + verdict
// requests). Producer-only.
func (p *VerdictPool) Stamps() uint64 { return p.stamp }

// Close stops every worker and waits for them to exit. Goroutines are
// not garbage-collected, so every pool owner must Close; idempotent.
func (p *VerdictPool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, s := range p.shards {
		close(s.ch)
	}
	for _, s := range p.shards {
		<-s.done
	}
}

func (s *verdictShard) run() {
	defer close(s.done)
	for msg := range s.ch {
		if msg.sync != nil {
			close(msg.sync)
			continue
		}
		s.process(msg)
	}
}

func (s *verdictShard) process(msg shardMsg) {
	if v := msg.verdict; v != nil {
		s.work += uint64(s.votes[v.sid])
		s.obsWork.Add(int64(s.votes[v.sid]))
		majority, deviants, ok := s.m.Agreement(v.sid, v.completed)
		s.events = append(s.events, VerdictEvent{
			Stamp: msg.stamp, Shard: s.idx, SID: v.sid, Kind: VerdictDecision,
			Majority: majority, Deviants: deviants, OK: ok,
		})
		return
	}
	r := msg.report
	sid := r.Key.SID
	deviants := s.m.Observe(r)
	s.votes[sid]++
	s.work++
	s.obsReports.Inc()
	s.obsWork.Inc()
	if r.Key.Point == mapred.CkptPoint {
		s.events = append(s.events, VerdictEvent{
			Stamp: msg.stamp, Shard: s.idx, SID: sid, Kind: VerdictCkpt, Key: r.Key,
		})
	}
	for _, rep := range deviants {
		bit := uint64(1) << rep // Observe returns indices below MaxReplicas
		if s.deviant[sid]&bit != 0 {
			continue
		}
		s.deviant[sid] |= bit
		s.obsDeviants.Inc()
		s.events = append(s.events, VerdictEvent{
			Stamp: msg.stamp, Shard: s.idx, SID: sid, Kind: VerdictDeviant, Replica: rep,
		})
	}
}
