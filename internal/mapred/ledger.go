package mapred

import "sync"

// CostLedger attributes every charged CPU microsecond of a run to
// exactly one bucket, answering "where did the 1+ε overhead go":
//
//   - committed: the winner replica's committed task work — the CPU a
//     trust-the-cloud single run would also have paid.
//   - replica_waste: attempts whose results never served anyone — raced
//     backups, attempts torn down by kills or crashes, hung attempts.
//   - verify (split by mode full/quiz/deferred): CPU bought purely for
//     verification — the r-1 non-winner replicas of a full-r sub-graph,
//     and trusted-tier quiz re-executions.
//   - recovery_rerun: every microsecond spent inside sub-graph attempts
//     that were later superseded by a retry/restart/escalation, plus
//     attempts of failed sub-graphs.
//
// The engine reports resolutions (committed / lost / quiz) at the exact
// sites that already maintain the pinned committed+lost == CPUTimeUs
// split, so the four buckets sum to Metrics.CPUTimeUs once a run has
// drained (the in_flight residue — live attempts charged at dispatch
// settle whose completion has not fired — is zero at quiesce). An
// attempt resolves once, when it commits, hangs or is torn down, and
// always before ForgetSID folds its sid, so a folded sid takes no
// further charge. The controller reports dispositions (Launch /
// Verified / Supersede); attribution of a sub-graph's accumulated CPU
// happens when its disposition is known, so resolution order never
// races the verdict.
//
// All methods are nil-safe no-ops and safe for concurrent use, so
// introspection handlers can read buckets while the simulation runs.
type CostLedger struct {
	mu      sync.Mutex
	sids    map[string]*sidCost
	settled CostBuckets
}

// Verification-mode labels used by the verify bucket split.
const (
	CostModeFull     = "full"
	CostModeQuiz     = "quiz"
	CostModeDeferred = "deferred"
)

// sid lifecycle states inside the ledger.
const (
	sidLive       = "live"
	sidVerified   = "verified"
	sidSuperseded = "superseded"
)

// sidCost accumulates one sub-graph attempt group's CPU until its
// disposition is final.
type sidCost struct {
	mode   string // full, quiz, deferred ("" until Launch)
	state  string
	winner int
	perRep map[int]*repCost
	quizUs int64
}

// repCost is one replica's resolved CPU within a sub-graph.
type repCost struct {
	committedUs int64
	lostUs      int64
}

// CostBuckets is the JSON-ready attribution summary.
type CostBuckets struct {
	CommittedUs      int64 `json:"committed_us"`
	ReplicaWasteUs   int64 `json:"replica_waste_us"`
	VerifyFullUs     int64 `json:"verify_full_us"`
	VerifyQuizUs     int64 `json:"verify_quiz_us"`
	VerifyDeferredUs int64 `json:"verify_deferred_us"`
	RecoveryRerunUs  int64 `json:"recovery_rerun_us"`
}

// TotalUs sums every bucket.
func (b CostBuckets) TotalUs() int64 {
	return b.CommittedUs + b.ReplicaWasteUs + b.VerifyUs() + b.RecoveryRerunUs
}

// VerifyUs sums the three verification-mode buckets.
func (b CostBuckets) VerifyUs() int64 {
	return b.VerifyFullUs + b.VerifyQuizUs + b.VerifyDeferredUs
}

func (b *CostBuckets) add(o CostBuckets) {
	b.CommittedUs += o.CommittedUs
	b.ReplicaWasteUs += o.ReplicaWasteUs
	b.VerifyFullUs += o.VerifyFullUs
	b.VerifyQuizUs += o.VerifyQuizUs
	b.VerifyDeferredUs += o.VerifyDeferredUs
	b.RecoveryRerunUs += o.RecoveryRerunUs
}

// NewCostLedger returns an empty ledger.
func NewCostLedger() *CostLedger {
	return &CostLedger{sids: make(map[string]*sidCost)}
}

// sid returns the live entry for id, creating it if needed. Caller
// holds mu.
func (l *CostLedger) sid(id string) *sidCost {
	s := l.sids[id]
	if s == nil {
		s = &sidCost{state: sidLive, winner: -1, perRep: make(map[int]*repCost)}
		l.sids[id] = s
	}
	return s
}

func (s *sidCost) rep(replica int) *repCost {
	r := s.perRep[replica]
	if r == nil {
		r = &repCost{}
		s.perRep[replica] = r
	}
	return r
}

// Launch records that the controller launched (or re-launched) sid
// under the given verification mode.
func (l *CostLedger) Launch(sid, mode string) {
	l.mu.Lock()
	l.sid(sid).mode = mode
	l.mu.Unlock()
}

// Verified records the sub-graph's verdict: replica winner's committed
// work is real output, everything else the sid spent is verification
// redundancy or waste.
func (l *CostLedger) Verified(sid string, winner int) {
	l.mu.Lock()
	s := l.sid(sid)
	s.state = sidVerified
	s.winner = winner
	l.mu.Unlock()
}

// Supersede marks sid's entire spend as recovery re-run cost: a retry,
// restart, escalation, or sub-graph failure replaced it.
func (l *CostLedger) Supersede(sid string) {
	l.mu.Lock()
	l.sid(sid).state = sidSuperseded
	l.mu.Unlock()
}

// ResolveCommitted charges durUs of committed task work to (sid,
// replica). The engine calls it where it moves CPU into the committed
// half of the pinned committed/lost split.
func (l *CostLedger) ResolveCommitted(sid string, replica int, durUs int64) {
	if durUs == 0 {
		return
	}
	l.mu.Lock()
	l.sid(sid).rep(replica).committedUs += durUs
	l.mu.Unlock()
}

// ResolveLost charges durUs of lost task work (hung, raced, torn down)
// to (sid, replica).
func (l *CostLedger) ResolveLost(sid string, replica int, durUs int64) {
	if durUs == 0 {
		return
	}
	l.mu.Lock()
	l.sid(sid).rep(replica).lostUs += durUs
	l.mu.Unlock()
}

// Quiz charges durUs of trusted-tier re-execution to sid.
func (l *CostLedger) Quiz(sid string, durUs int64) {
	if durUs == 0 {
		return
	}
	l.mu.Lock()
	l.sid(sid).quizUs += durUs
	l.mu.Unlock()
}

// route attributes one sid's accumulated CPU according to its state.
func (s *sidCost) route() CostBuckets {
	var b CostBuckets
	if s.state == sidSuperseded {
		for _, r := range s.perRep {
			b.RecoveryRerunUs += r.committedUs + r.lostUs
		}
		b.RecoveryRerunUs += s.quizUs
		return b
	}
	// Live or verified: lost work is replica waste, quiz CPU is
	// verification spend, committed work splits winner vs redundancy.
	// A live sid has no winner yet; its committed work provisionally
	// counts as committed (plain engine runs with sid "" stay here
	// forever, and a controller sid is folded only after its verdict).
	verify := &b.VerifyFullUs
	switch s.mode {
	case CostModeQuiz:
		verify = &b.VerifyQuizUs
	case CostModeDeferred:
		verify = &b.VerifyDeferredUs
	}
	*verify += s.quizUs
	for rep, r := range s.perRep {
		b.ReplicaWasteUs += r.lostUs
		if s.state == sidVerified && rep != s.winner {
			*verify += r.committedUs
		} else {
			b.CommittedUs += r.committedUs
		}
	}
	return b
}

// Fold settles sid's attribution into the cumulative buckets and drops
// its per-replica state; the engine calls it from ForgetSID. A sid that
// is still live when folded is treated as superseded — the only caller
// folding live sids is end-of-run teardown of failed work.
func (l *CostLedger) Fold(sid string) {
	l.mu.Lock()
	s := l.sids[sid]
	if s == nil {
		l.mu.Unlock()
		return
	}
	if s.state == sidLive {
		s.state = sidSuperseded
	}
	l.settled.add(s.route())
	delete(l.sids, sid)
	l.mu.Unlock()
}

// Sizes reports how many sids the ledger holds live: zero once a
// controller run has torn down, since the engine resolves no CPU to a
// sid it has folded.
func (l *CostLedger) Sizes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sids)
}

// Buckets returns the attribution of everything resolved so far:
// settled (folded) spend plus the live sids routed by their current
// state.
func (l *CostLedger) Buckets() CostBuckets {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.settled
	for _, s := range l.sids {
		b.add(s.route())
	}
	return b
}

// SIDBuckets returns one live sub-graph's attribution so far.
func (l *CostLedger) SIDBuckets(sid string) (CostBuckets, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sids[sid]
	if s == nil {
		return CostBuckets{}, false
	}
	return s.route(), true
}

// TotalUs returns the sum of every bucket — equal to Metrics.CPUTimeUs
// once the engine has drained.
func (l *CostLedger) TotalUs() int64 {
	return l.Buckets().TotalUs()
}
