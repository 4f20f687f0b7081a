package bft

import (
	"fmt"
	"slices"
)

// StateMachine is the deterministic service replicated by the protocol.
type StateMachine interface {
	// Apply executes one ordered operation and returns its result.
	// Replicas apply operations in the same global order, so equal
	// implementations yield equal results.
	Apply(op []byte) []byte
}

// entry is one slot of the ordering log. Prepares and commits record the
// digest each member last voted for, indexed by the sender's position in
// the group, so votes arriving before the pre-prepare (or votes for a
// different proposal) never count toward the wrong quorum, and no sender
// counts twice. A zero digest is no vote: no request hashes to it.
type entry struct {
	pp       PrePrepare // valid once proposed
	proposed bool
	prepares []Digest
	commits  []Digest
	sentC    bool
	executed bool
}

// entrySlab is how many log entries, with their vote arrays, a replica
// allocates at once.
const entrySlab = 32

// votesFor counts votes matching the slot's accepted digest.
func votesFor(votes []Digest, d Digest) int {
	n := 0
	for _, v := range votes {
		if v == d {
			n++
		}
	}
	return n
}

// Replica is one PBFT replica. All methods run on the network goroutine.
type Replica struct {
	id    ID
	index int
	n, f  int
	net   *Network
	sm    StateMachine
	peers []ID

	view     uint64
	nextSeq  uint64
	lastExec uint64
	log      map[uint64]*entry
	slab     []entry // entries not yet handed out

	executed map[reqKey][]byte  // request key -> cached result
	proposed map[reqKey]bool    // primary: already assigned a slot
	pending  map[reqKey]Request // accepted but not yet executed

	watch   watchdog
	vcVotes map[uint64][]*ViewChange // new view -> votes by sender index
	vcSent  map[uint64]bool

	// ViewChangeTimeoutUs is how long a backup waits for progress on a
	// pending request before voting to change views.
	ViewChangeTimeoutUs int64

	// CorruptResults makes this replica return tampered execution
	// results, modelling a Byzantine control-tier member for tests; the
	// ordering protocol itself still runs (a fully silent replica is
	// modeled by Network.Drop instead).
	CorruptResults bool

	// Executions counts operations applied, for tests.
	Executions int
}

// NewReplica constructs replica index i of a 3f+1 group and registers it
// on the network.
func NewReplica(net *Network, index, f int, sm StateMachine) *Replica {
	n := 3*f + 1
	r := &Replica{
		id:                  ReplicaID(index),
		index:               index,
		n:                   n,
		f:                   f,
		net:                 net,
		sm:                  sm,
		view:                0,
		nextSeq:             1,
		log:                 make(map[uint64]*entry),
		executed:            make(map[reqKey][]byte),
		proposed:            make(map[reqKey]bool),
		pending:             make(map[reqKey]Request),
		vcVotes:             make(map[uint64][]*ViewChange),
		vcSent:              make(map[uint64]bool),
		ViewChangeTimeoutUs: 50_000,
	}
	for i := 0; i < n; i++ {
		r.peers = append(r.peers, ReplicaID(i))
	}
	r.watch = watchdog{net: net, expire: r.onWatchdog}
	net.Register(r.id, r)
	return r
}

// primary returns the primary's ID for a view.
func (r *Replica) primary(view uint64) ID {
	return r.peers[view%uint64(r.n)]
}

// isPrimary reports whether this replica leads the current view.
func (r *Replica) isPrimary() bool { return r.primary(r.view) == r.id }

// member returns the sender's position in the group, or -1 for an ID
// outside it. The bus authenticates senders, so a vote counts under this
// index and never under the name the message carries.
func (r *Replica) member(from ID) int { return slices.Index(r.peers, from) }

func (r *Replica) broadcast(msg Message) {
	for _, p := range r.peers {
		r.net.Send(r.id, p, msg)
	}
}

// Receive implements Handler.
func (r *Replica) Receive(from ID, msg Message) {
	switch m := msg.(type) {
	case Request:
		r.onRequest(m, msg)
	case PrePrepare:
		r.onPrePrepare(from, m)
	case Prepare:
		r.onPrepare(from, m)
	case Commit:
		r.onCommit(from, m)
	case ViewChange:
		r.onViewChange(from, m)
	case NewView:
		r.onNewView(from, m)
	}
}

// onRequest takes a client request; boxed is the same request as
// received, forwarded to the primary without boxing it again.
func (r *Replica) onRequest(req Request, boxed Message) {
	key := req.key()
	if res, ok := r.executed[key]; ok {
		// Retransmission of an executed request: resend the cached reply.
		r.net.Send(r.id, req.Client, Reply{View: r.view, ReqSeq: req.Seq, Replica: r.id, Result: res})
		return
	}
	r.pending[key] = req
	if r.isPrimary() {
		r.propose(req)
	} else {
		// Forward to the primary and watch for progress.
		r.net.Send(r.id, r.primary(r.view), boxed)
	}
	r.watch.arm(r.ViewChangeTimeoutUs)
}

// propose assigns the next sequence number and broadcasts a pre-prepare.
func (r *Replica) propose(req Request) {
	key := req.key()
	if r.proposed[key] || r.executed[key] != nil {
		return
	}
	r.proposed[key] = true
	pp := PrePrepare{View: r.view, Seq: r.nextSeq, Digest: req.Digest(), Request: req}
	r.nextSeq++
	r.broadcast(pp)
}

func (r *Replica) entryAt(seq uint64) *entry {
	e := r.log[seq]
	if e == nil {
		if len(r.slab) == 0 {
			r.slab = make([]entry, entrySlab)
			votes := make([]Digest, 2*r.n*entrySlab)
			for i := range r.slab {
				v := votes[2*r.n*i : 2*r.n*(i+1)]
				r.slab[i].prepares, r.slab[i].commits = v[:r.n:r.n], v[r.n:]
			}
		}
		e, r.slab = &r.slab[0], r.slab[1:]
		r.log[seq] = e
	}
	return e
}

func (r *Replica) onPrePrepare(from ID, pp PrePrepare) {
	if pp.View != r.view || from != r.primary(r.view) {
		return
	}
	if pp.Request.Digest() != pp.Digest {
		return // malformed proposal
	}
	e := r.entryAt(pp.Seq)
	if e.proposed && e.pp.Digest != pp.Digest {
		return // conflicting proposal for the slot; ignore (primary is faulty)
	}
	e.pp, e.proposed = pp, true
	key := pp.Request.key()
	if r.executed[key] == nil {
		r.pending[key] = pp.Request
		r.watch.arm(r.ViewChangeTimeoutUs)
	}
	r.broadcast(Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.id})
	r.checkProgress(e)
}

func (r *Replica) onPrepare(from ID, p Prepare) {
	i := r.member(from)
	if p.View != r.view || i < 0 {
		return
	}
	e := r.entryAt(p.Seq)
	if e.proposed && e.pp.Digest != p.Digest {
		return
	}
	e.prepares[i] = p.Digest
	r.checkProgress(e)
}

func (r *Replica) onCommit(from ID, c Commit) {
	i := r.member(from)
	if c.View != r.view || i < 0 {
		return
	}
	e := r.entryAt(c.Seq)
	if e.proposed && e.pp.Digest != c.Digest {
		return
	}
	e.commits[i] = c.Digest
	r.checkProgress(e)
}

// checkProgress advances the two quorum phases for a slot and then
// executes any newly contiguous prefix of the log.
func (r *Replica) checkProgress(e *entry) {
	if !e.proposed {
		return
	}
	quorum := 2*r.f + 1
	if !e.sentC && votesFor(e.prepares, e.pp.Digest) >= quorum {
		e.sentC = true
		r.broadcast(Commit{View: r.view, Seq: e.pp.Seq, Digest: e.pp.Digest, Replica: r.id})
	}
	// Execute in order.
	for {
		next := r.log[r.lastExec+1]
		if next == nil || !next.proposed || next.executed || votesFor(next.commits, next.pp.Digest) < quorum {
			return
		}
		r.execute(next)
	}
}

func (r *Replica) execute(e *entry) {
	e.executed = true
	r.lastExec = e.pp.Seq
	req := e.pp.Request
	key := req.key()
	var result []byte
	if prev, ok := r.executed[key]; ok {
		result = prev // idempotent re-execution guard
	} else {
		result = r.sm.Apply(req.Op)
		r.Executions++
		if r.CorruptResults {
			result = append(append([]byte(nil), result...), '!')
		}
		r.executed[key] = result
	}
	delete(r.pending, key)
	if req.Client != "" {
		r.net.Send(r.id, req.Client, Reply{View: r.view, ReqSeq: req.Seq, Replica: r.id, Result: result})
	}
	if len(r.pending) == 0 {
		r.watch.disarm()
	} else {
		r.watch.arm(r.ViewChangeTimeoutUs)
	}
}

// onWatchdog fires when a pending request saw no progress for a whole
// ViewChangeTimeoutUs: vote the primary out.
func (r *Replica) onWatchdog() {
	if len(r.pending) > 0 {
		r.startViewChange(r.view + 1)
	}
}

func (r *Replica) startViewChange(newView uint64) {
	if newView <= r.view || r.vcSent[newView] {
		return
	}
	r.vcSent[newView] = true
	vc := ViewChange{NewView: newView, Replica: r.id, LastSeq: r.lastExec, Pending: r.pendingList()}
	r.broadcast(vc)
	// If the new view never installs (its primary is faulty too),
	// escalate to the next one — the standard doubling view-change
	// timer.
	r.net.After(2*r.ViewChangeTimeoutUs, func() {
		if r.view < newView && len(r.pending) > 0 {
			r.startViewChange(newView + 1)
		}
	})
}

func (r *Replica) pendingList() []Request {
	out := make([]Request, 0, len(r.pending))
	for _, req := range r.pending {
		out = append(out, req)
	}
	sortByKey(out)
	return out
}

func (r *Replica) onViewChange(from ID, vc ViewChange) {
	i := r.member(from)
	if vc.NewView <= r.view || i < 0 {
		return
	}
	votes := r.vcVotes[vc.NewView]
	if votes == nil {
		votes = make([]*ViewChange, r.n)
		r.vcVotes[vc.NewView] = votes
	}
	votes[i] = &vc
	voters := 0
	for _, v := range votes {
		if v != nil {
			voters++
		}
	}
	// Liveness amplification: join once f+1 replicas vote.
	if voters >= r.f+1 {
		r.startViewChange(vc.NewView)
	}
	if r.primary(vc.NewView) != r.id || voters < 2*r.f+1 {
		return
	}
	// This replica leads the new view: gather surviving requests and
	// re-propose them deterministically. Numbering restarts right after
	// the highest EXECUTED sequence across the quorum — not after the
	// highest proposed one. installView purges every unexecuted slot, so
	// basing the restart on a slot that was proposed but never executed
	// would leave a permanent hole below the re-proposals; the in-order
	// execution loop can never cross a hole, and the group live-locks
	// through endless view changes while the request stays pending
	// forever.
	seen := make(map[reqKey]Request)
	maxExec := r.lastExec
	for _, v := range votes {
		if v == nil {
			continue
		}
		if v.LastSeq > maxExec {
			maxExec = v.LastSeq
		}
		for _, req := range v.Pending {
			seen[req.key()] = req
		}
	}
	for k, req := range r.pending {
		seen[k] = req
	}
	reqs := make([]Request, 0, len(seen))
	for _, req := range seen {
		reqs = append(reqs, req)
	}
	sortByKey(reqs)
	nv := NewView{View: vc.NewView, Primary: r.id}
	seq := maxExec
	for _, req := range reqs {
		if r.executed[req.key()] != nil {
			continue
		}
		seq++
		nv.Reproposals = append(nv.Reproposals, PrePrepare{
			View: vc.NewView, Seq: seq, Digest: req.Digest(), Request: req,
		})
	}
	r.installView(vc.NewView, seq)
	r.broadcast(nv)
}

func (r *Replica) onNewView(from ID, nv NewView) {
	if nv.View < r.view || from != r.primary(nv.View) || nv.Primary != from {
		return
	}
	if nv.View > r.view {
		var maxSeq uint64
		for _, pp := range nv.Reproposals {
			if pp.Seq > maxSeq {
				maxSeq = pp.Seq
			}
		}
		r.installView(nv.View, maxSeq)
	}
	for _, pp := range nv.Reproposals {
		r.onPrePrepare(from, pp)
	}
}

// installView moves the replica into a view, resetting per-view state.
func (r *Replica) installView(view, nextSeqBase uint64) {
	r.view = view
	if nextSeqBase+1 > r.nextSeq {
		r.nextSeq = nextSeqBase + 1
	}
	// Slots not yet executed were re-proposed; drop their stale quorum
	// state so it cannot mix across views.
	for seq, e := range r.log {
		if !e.executed {
			delete(r.log, seq)
		}
	}
	r.proposed = make(map[reqKey]bool)
	if len(r.pending) > 0 {
		r.watch.arm(r.ViewChangeTimeoutUs)
	}
}

// String renders replica identity and progress.
func (r *Replica) String() string {
	return fmt.Sprintf("%s[view=%d exec=%d]", r.id, r.view, r.lastExec)
}
