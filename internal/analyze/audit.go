package analyze

import (
	"fmt"
	"strings"
	"sync"

	"clusterbft/internal/cluster"
)

// AuditKind classifies one step of the fault-isolation pipeline's
// reasoning: the evidence it saw and the conclusion it drew.
type AuditKind uint8

// Audit event kinds, in rough pipeline order.
const (
	// AuditMismatch: a replica's digests deviated from the f+1 majority
	// (or a job cluster returned a commission fault) or, with
	// CauseTimeout, were not all in when the verifier's timer fired — the
	// raw evidence.
	AuditMismatch AuditKind = iota + 1
	// AuditNewDisjoint: the faulty set was disjoint from every current
	// suspicion set and became a new member of D (Fig 7 lines 4-5).
	AuditNewDisjoint
	// AuditRefine: the faulty set was a strict subset of a member of D;
	// the coarser set moved to the overlapping evidence and the new set
	// replaced it (Fig 7 lines 6-9).
	AuditRefine
	// AuditOverlap: the faulty set overlapped several suspicion sets and
	// was kept as overlapping evidence (Fig 7 line 11).
	AuditOverlap
	// AuditIntersect: stage 2 shrank a member of D to its intersection
	// with evidence touching only that member (Fig 7 lines 12-23).
	// Removed holds the exonerated nodes.
	AuditIntersect
	// AuditSaturated: |D| reached f; the suspect population stops
	// growing from this point (§6.3).
	AuditSaturated
	// AuditConviction: a member of D narrowed to exactly one node — the
	// analyzer has isolated a Byzantine node.
	AuditConviction
	// AuditScore: a node's suspicion level crossed into a different
	// category (none/low/med/high, §6.3).
	AuditScore
	// AuditEscalate: a sub-graph running a cheap verification policy
	// (quiz/deferred) produced fault evidence — quiz digest mismatch or
	// storage-boundary conflict — and was re-initiated at full
	// replication. The detail names the evidence.
	AuditEscalate
	// The verifier's lifecycle decisions about one sub-graph attempt
	// (SID): launched, superseding the attempt in Detail if any; verified
	// with Replica the winner; re-initiated at r+1 after a timeout (Cause)
	// or f+1 agreement failing; restarted because the input it read
	// optimistically turned out deviant; failed with its attempts
	// exhausted; an interior job's f+1-agreed output (Detail)
	// checkpointed from Replica.
	AuditLaunch
	AuditVerify
	AuditRetry
	AuditRestart
	AuditFail
	AuditCheckpoint
)

// AuditCause says which fault an event rests on, where it rests on one.
type AuditCause uint8

const (
	// CauseCommission: digests that differ from the f+1 majority's.
	CauseCommission AuditCause = iota + 1
	// CauseTimeout: no complete digest vector when the verifier timer
	// fired (omission, §4.2 step 6).
	CauseTimeout
)

// String names the cause; empty for none.
func (c AuditCause) String() string {
	switch c {
	case CauseCommission:
		return "commission"
	case CauseTimeout:
		return "timeout"
	}
	return ""
}

// String names the kind for timelines.
func (k AuditKind) String() string {
	switch k {
	case AuditMismatch:
		return "mismatch"
	case AuditNewDisjoint:
		return "new-suspect-set"
	case AuditRefine:
		return "refine"
	case AuditOverlap:
		return "overlap"
	case AuditIntersect:
		return "intersect"
	case AuditSaturated:
		return "saturated"
	case AuditConviction:
		return "conviction"
	case AuditScore:
		return "score"
	case AuditEscalate:
		return "escalate"
	case AuditLaunch:
		return "launch"
	case AuditVerify:
		return "verify"
	case AuditRetry:
		return "retry"
	case AuditRestart:
		return "restart"
	case AuditFail:
		return "fail"
	case AuditCheckpoint:
		return "checkpoint"
	default:
		return "audit(?)"
	}
}

// AuditEvent is one recorded reasoning step with the evidence that
// caused it. T is a virtual timestamp from the clock the trail was
// built with (engine microseconds, or simulator ticks in faultsim).
// SID, Replica and Cause are set on the controller's events only: which
// sub-graph attempt, which of its replicas, resting on which fault.
type AuditEvent struct {
	T       int64
	Kind    AuditKind
	SID     string           // sub-graph attempt; "" when the event is about none
	Replica int              // replica of SID; -1 when none
	Cause   AuditCause       // 0 when the event rests on no fault
	Nodes   []cluster.NodeID // the set concluded about (sorted)
	Removed []cluster.NodeID // exonerated nodes, for AuditIntersect
	Detail  string           // free-form evidence description
}

// String renders one timeline line: "t=... kind [attempt] nodes [detail]".
func (e AuditEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8d %-15s", e.T, e.Kind.String())
	if e.SID != "" {
		fmt.Fprintf(&b, " %s", e.SID)
		if e.Replica >= 0 {
			fmt.Fprintf(&b, "/r%d", e.Replica)
		}
		if e.Cause != 0 {
			fmt.Fprintf(&b, " %s", e.Cause)
		}
	}
	if len(e.Nodes) > 0 {
		fmt.Fprintf(&b, " %v", e.Nodes)
	}
	if len(e.Removed) > 0 {
		fmt.Fprintf(&b, " exonerated=%v", e.Removed)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, "  (%s)", e.Detail)
	}
	return b.String()
}

// AuditTrail accumulates AuditEvents in the order the fault-isolation
// pipeline drew its conclusions. All methods are nil-safe no-ops on a
// nil receiver, so components hold a possibly-nil *AuditTrail and log
// unconditionally. The trail is bounded: beyond maxEvents the oldest
// events are dropped (counted), keeping long simulations from growing
// without bound.
type AuditTrail struct {
	mu      sync.Mutex
	clock   func() int64
	events  []AuditEvent
	max     int
	dropped int
}

// DefaultAuditCapacity bounds a trail built by NewAuditTrail.
const DefaultAuditCapacity = 1 << 16

// NewAuditTrail builds a trail stamping events with clock (nil clock
// stamps 0).
func NewAuditTrail(clock func() int64) *AuditTrail {
	return &AuditTrail{clock: clock, max: DefaultAuditCapacity}
}

// Add records one event, stamping T from the trail's clock.
func (a *AuditTrail) Add(kind AuditKind, nodes []cluster.NodeID, detail string) {
	a.Record(AuditEvent{Kind: kind, Replica: -1, Nodes: nodes, Detail: detail})
}

// AddRemoved records an intersection-style event carrying both the
// surviving and the exonerated nodes.
func (a *AuditTrail) AddRemoved(kind AuditKind, nodes, removed []cluster.NodeID, detail string) {
	a.Record(AuditEvent{Kind: kind, Replica: -1, Nodes: nodes, Removed: removed, Detail: detail})
}

// Record appends e as given — the controller's way in, with the attempt
// fields filled — stamping T from the trail's clock.
func (a *AuditTrail) Record(e AuditEvent) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.clock != nil {
		e.T = a.clock()
	}
	if a.max > 0 && len(a.events) >= a.max {
		drop := len(a.events) - a.max + 1
		a.events = a.events[:copy(a.events, a.events[drop:])]
		a.dropped += drop
	}
	a.events = append(a.events, e)
}

// Events returns a copy of the retained events, oldest first.
func (a *AuditTrail) Events() []AuditEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]AuditEvent, len(a.events))
	copy(out, a.events)
	return out
}

// Take returns the retained events, oldest first, and empties the
// trail.
func (a *AuditTrail) Take() []AuditEvent {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.events
	a.events = nil
	return out
}

// RenderTimeline formats events (a trail's Events, filtered or not) as a
// human-readable convergence timeline, one event per line, oldest first.
// max <= 0 renders everything; otherwise the most recent max events
// render, with an elision header counting what was cut.
func RenderTimeline(events []AuditEvent, max int) string {
	var b strings.Builder
	if max > 0 && len(events) > max {
		fmt.Fprintf(&b, "... %d earlier events elided ...\n", len(events)-max)
		events = events[len(events)-max:]
	}
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
