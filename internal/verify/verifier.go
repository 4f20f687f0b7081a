// Package verify is ClusterBFT's trusted decision core (paper §4.1–4.3,
// §5.2): the verifier, the matcher of digest reports it rules by, the
// suspicion table and fault analyzer it alone writes, and the
// verification policies. It may import only digest, analyze, cluster and
// the standard library, so no part of the data plane is in its import
// closure; scripts/closure holds it there.
//
// The verifier decides; core's Controller acts (DESIGN.md §5, "The
// verifier as a state machine"). Its state is the matcher, the suspicion
// table and fault analyzer it was handed, each sub-graph's verdict state,
// its template DAG and the upstream topology, and it changes only in
// Apply, so the ordered events alone determine every decision —
// verdicts, blame, and each launch's policy, sources, checkpointed suffix
// and quiz sample: replaying them into a fresh verifier gives the same
// decision stream, which is what lets the verifier be replicated (§5.2)
// and replayed. It holds no engine, storage, tracer or trail and reads no
// clock.
package verify

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/digest"
)

// EventKind names what an Event reports.
type EventKind uint8

const (
	EvDigest     EventKind = iota + 1 // a digest report
	EvJobDone                         // one job of a replica finished; its last completes the replica
	EvQuiz                            // a quiz re-execution committed its digests
	EvTimeout                         // an attempt's verifier timer fired
	EvStart                           // a run began: launch its roots
	EvAssigned                        // a job of a replica first landed on a node
	EvCheckpoint                      // a job's agreed output landed under ckpt/
)

// Event is one input to the verifier, passed by value. SID names the
// attempt it speaks for; the other fields are set per kind.
type Event struct {
	Kind    EventKind
	SID     string
	Replica int            // EvAssigned, EvJobDone
	Node    cluster.NodeID // EvAssigned
	Job     string         // EvAssigned, EvJobDone, EvCheckpoint: the template job
	// EvJobDone of an attempt under a cheap policy: the job's task IDs,
	// the quiz sample's candidates.
	Tasks  []string
	Report digest.Report // EvDigest
}

// DecisionKind names what a Decision tells the controller to do.
type DecisionKind uint8

// Decisions, each about sub-graph Sub, in the order the controller acts.
const (
	DFaulty           DecisionKind = iota + 1 // replica is faulty (cause): record the mismatch
	DVerified                                 // verified at winner over n deviants: record it, kill the rest
	DRetry                                    // re-initiated at a higher degree (cause): kill, record
	DEscalate                                 // a cheap policy saw fault evidence (detail): record
	DRestart                                  // restarted in a cascade: kill, drop checkpoints, record
	DFail                                     // attempts exhausted (cause): kill, drop checkpoints, record, fail the run
	DCheckpointAgreed                         // f+1 replicas agree on a job's output: save replica's
	DQuiz                                     // quiz the primary's tasks in picks
	DLaunch                                   // inputs ready: launch an attempt by plan
	DTooWide                                  // needs n replicas, more than the matcher tallies: fail the run
	DForget                                   // superseded attempt detail is swept: forget it in the engine
	DLog                                      // the suspicion table or fault analyzer logged Line: write it to the trail
)

// Decision is one verdict the controller carries out.
type Decision struct {
	Kind    DecisionKind
	Sub     int
	Replica int                 // DFaulty: the replica; DVerified: the winner; DCheckpointAgreed: the one to save
	Cause   analyze.AuditCause  // DFaulty, DRetry, DFail
	N       int                 // DVerified: replicas outvoted; DTooWide: replicas needed
	Detail  string              // DEscalate: the evidence; DForget: the sid; DCheckpointAgreed: the template job
	Nodes   []cluster.NodeID    // DFaulty: the replica's nodes, sorted
	Picks   []QuizTask          // DQuiz
	Plan    LaunchPlan          // DLaunch
	Line    *analyze.AuditEvent // DLog: the table line, by pointer so that no decision grows by a whole line
}

// LaunchPlan is what one attempt of a sub-graph runs with, decided at
// launch. The DLaunch decision carries a copy: the same batch may tear
// the attempt down and plan the next before the controller acts.
type LaunchPlan struct {
	SID        string
	Policy     Policy // resolved at first launch (decidePolicy); escalation rewrites it to full
	R          int
	TotalTries int // launches of the sub-graph, this one included
	TimeoutUs  int64
	Sources    map[int]SourceRef // the upstream replica read, per upstream sub-graph
	// Skip holds the template jobs whose consumers read a checkpoint
	// instead, Run the ones submitted; both are nil when all are.
	Skip, Run map[string]bool
}

// SourceRef names the upstream replica an attempt reads.
type SourceRef struct {
	SID      string
	Replica  int
	Verified bool
}

// QuizTask is a task of the primary's template job Tmpl to re-execute.
type QuizTask struct {
	Tmpl int
	Task string
}

// QuizReplica is the replica index quiz re-executions report under; the
// primary is always 0 under quiz/deferred (r=1), and keeping quizzes at
// a fixed non-zero index lets the matcher compare the two vectors with
// the machinery it already has. The online Observe check never sees
// an f+1 class among {primary, quiz} with f >= 1, so quiz evidence is
// judged only by QuizAgrees.
const QuizReplica = 1

// Tmpl is one template job of a sub-graph, as launch plans read it.
type Tmpl struct {
	ID       string
	Deps     []string // the template jobs of the same sub-graph it reads
	Interior bool     // another job of the sub-graph reads it
}

// AuditPair is one input of a sub-graph's job that another job of the
// run produced: the io-in digest task that read it, the producing
// template job, and the sub-graph that job belongs to.
type AuditPair struct {
	In   string
	Out  string
	From int
}

// RepVerdict is one replica's state within the current attempt.
type RepVerdict struct {
	done      int // jobs finished
	Completed bool
	Faulty    bool
	placed    []placement
	RanOn     int // nodes its finished jobs ran on, which outlives placed for Explain
}

// placement is one node a replica's template job was assigned to.
type placement struct {
	node cluster.NodeID
	job  string
	ran  bool // the job finished
}

// finish marks job's placements finished.
func (r *RepVerdict) finish(job string) {
	for i := range r.placed {
		if p := &r.placed[i]; p.job == job {
			if !slices.ContainsFunc(r.placed, func(q placement) bool { return q.ran && q.node == p.node }) {
				r.RanOn++
			}
			p.ran = true
		}
	}
}

// jobCluster returns the nodes the replica's jobs, or only its finished
// ones, were assigned to, sorted: its job cluster (§4.3), which with
// running and hung jobs included is what a fault is charged to.
func (r *RepVerdict) jobCluster(finished bool) []cluster.NodeID {
	nodes := make([]cluster.NodeID, 0, len(r.placed))
	for _, p := range r.placed {
		if p.ran || !finished {
			nodes = append(nodes, p.node)
		}
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// Verdict is one sub-graph's verdict state. Only Apply writes it; the
// controller sets ID, Upstream, Audits and Tmpls before Reset and reads
// the rest.
type Verdict struct {
	ID       int
	Upstream []int
	Audits   []AuditPair
	Tmpls    []Tmpl // topological

	// LaunchPlan is the current attempt's; from a retry on, R and
	// TimeoutUs size the next one, which attempt numbers.
	LaunchPlan
	attempt int
	stale   []string // superseded attempts, swept once the sub-graph verifies
	// suffixBoost counts the timeout escalations of R earned while
	// attempts re-executed only a checkpointed suffix; a later full
	// re-execution sheds them, since the checkpointed-prefix jobs were
	// never implicated (suffix-scoped replica sizing, DESIGN.md §12).
	suffixBoost int
	njobs       int // jobs each replica of the attempt runs
	Launched    bool
	Reps        []RepVerdict
	// ckpts holds, per template job checkpointed, the sources of the
	// attempt that saved it.
	ckpts map[string]map[int]SourceRef
	// cands holds, per template job the primary finished under a cheap
	// policy, its task IDs; quizzes counts the tasks drawn, quizDone the
	// quizzes in, and quizFailed latches the first mismatch so
	// stragglers don't escalate twice.
	cands      [][]string
	quizzes    int
	quizDone   int
	quizFailed bool
	Verified   bool
	Failed     bool
	Winner     int
	winnerFP   digest.Sum
}

// firstCompleted picks the optimistic source replica: the first
// completed one the online digest comparison has not already flagged as
// deviant (consuming a known-corrupt output would guarantee a restart).
func (s *Verdict) firstCompleted() int {
	for i, rep := range s.Reps {
		if rep.Completed && !rep.Faulty {
			return i
		}
	}
	return -1
}

type stepKind uint8

const (
	stLaunch     stepKind = iota + 1 // launch sub if its inputs are ready
	stDownstream                     // walk sub's consumers from sub-graph i after it verified
	stQuiz                           // quiz sub's primary
	stPropagate                      // offline: launch sub's consumers on its optimistic output
	stBlame                          // escalate the i-th upstream sub's audit blamed
)

// step is pending work.
type step struct {
	kind   stepKind
	sub, i int
}

// Params are the verifier's share of a run's configuration, defaults
// applied.
type Params struct {
	F, R         int // faults tolerated; the configured degree
	MaxAttempts  int
	TimeoutUs    int64
	Offline      bool
	Policy       Policy
	QuizFraction float64
}

// Verifier is the trusted tier's decision maker: Apply takes one event
// and appends what it decided to Out.
type Verifier struct {
	Params
	matcher *Matcher
	susp    *SuspicionTable
	fa      *FaultAnalyzer
	nodes   []cluster.NodeID // for PolicyAuto

	runSeq  int
	Subs    []Verdict      // by sub-graph ID
	bySID   map[string]int // every attempt not yet forgotten
	Reports int64          // digest reports taken this run

	// Out holds decisions until the controller acts; what the tables log
	// into log (nil with no trail attached) joins it as DLog decisions.
	Out  []Decision
	log  *analyze.AuditTrail
	todo []step
	// buffers reused across events
	done, blame, cascade []int

	// Tap, when set, sees every event with its decisions.
	Tap func(ev Event, ds []Decision)
}

// New builds a verifier over p that alone writes susp and fa.
func New(p Params, susp *SuspicionTable, fa *FaultAnalyzer, nodes []cluster.NodeID) *Verifier {
	return &Verifier{
		Params:  p,
		matcher: NewMatcher(p.F),
		susp:    susp,
		fa:      fa,
		nodes:   nodes,
		bySID:   make(map[string]int),
		Out:     make([]Decision, 0, 16),
		todo:    make([]step, 0, 16),
		done:    make([]int, 0, 8),
	}
}

// Attach routes what the tables log into the verifier's decision stream,
// one DLog decision a line, when on, and turns their logging off
// otherwise.
func (v *Verifier) Attach(on bool) {
	v.log = nil
	if on {
		v.log = analyze.NewAuditTrail(nil)
	}
	v.susp.Audit, v.fa.Audit = v.log, v.log
}

// Reset starts run runSeq over subs, of which only ID, Upstream, Audits
// and Tmpls are read.
func (v *Verifier) Reset(runSeq int, subs []Verdict) {
	for i := range subs {
		subs[i].R, subs[i].TimeoutUs = v.R, v.TimeoutUs
	}
	v.runSeq = runSeq
	v.Subs = subs
	v.Reports = 0
}

// Sweep ends the run: it forgets every attempt left, returning their
// sids sorted, and drops node placements, checkpoint signatures and quiz
// candidates. The verdicts stay.
func (v *Verifier) Sweep() []string {
	sids := make([]string, 0, len(v.bySID))
	for sid := range v.bySID {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	for _, sid := range sids {
		v.matcher.Forget(sid)
		delete(v.bySID, sid)
	}
	for i := range v.Subs {
		s := &v.Subs[i]
		for j := range s.Reps {
			s.Reps[j].placed = nil
		}
		s.ckpts, s.cands = nil, nil
	}
	return sids
}

// Apply is the verifier's one entry point. An event for an attempt that
// is no longer its sub-graph's current one, that a retry or restart
// cascade tore down, or that belongs to a failed sub-graph is stale:
// Apply drops it and reports false.
func (v *Verifier) Apply(ev Event) bool {
	start := len(v.Out)
	live := ev.Kind == EvStart
	if live {
		for i := len(v.Subs) - 1; i >= 0; i-- {
			if len(v.Subs[i].Upstream) == 0 {
				v.push(stLaunch, i, 0)
			}
		}
	} else if i, ok := v.bySID[ev.SID]; ok && v.Subs[i].SID == ev.SID && v.Subs[i].Launched && !v.Subs[i].Failed {
		live = true
		s := &v.Subs[i]
		switch ev.Kind {
		case EvAssigned:
			rep := &s.Reps[ev.Replica]
			rep.placed = append(rep.placed, placement{node: ev.Node, job: ev.Job})
		case EvDigest:
			v.digest(s, ev.Report)
		case EvJobDone:
			if ev.Tasks != nil {
				if s.cands == nil {
					s.cands = make([][]string, len(s.Tmpls))
				}
				s.cands[slices.IndexFunc(s.Tmpls, func(t Tmpl) bool { return t.ID == ev.Job })] = ev.Tasks
			}
			rep := &s.Reps[ev.Replica]
			rep.finish(ev.Job)
			rep.done++
			if rep.done == s.njobs {
				rep.Completed = true
				// The suspicion table counts the job cluster before any
				// verdict on it.
				v.susp.RecordJob(rep.jobCluster(true))
				v.logged(s)
				v.push(stPropagate, s.ID, 0)
				v.decide(s)
			}
		case EvQuiz:
			s.quizDone++
			switch {
			case s.quizFailed:
			case !v.matcher.QuizAgrees(s.SID, 0, QuizReplica):
				// A trusted re-execution of the primary's own task, against
				// the primary's own stored inputs, produced different
				// records: the primary computed wrongly, and with r=1 there
				// is no honest majority to fall back on — rerun at full r.
				s.quizFailed = true
				v.faulty(s, 0)
				v.escalate(s, "quiz re-execution digest mismatch")
			case s.quizDone == s.quizzes && s.Policy == PolicyQuiz && !s.Verified:
				v.verify(s, 0, nil)
			}
		case EvTimeout:
			// retry ignores an attempt already verified.
			v.retry(s, analyze.CauseTimeout)
		case EvCheckpoint:
			if s.ckpts == nil {
				s.ckpts = make(map[string]map[int]SourceRef)
			}
			s.ckpts[ev.Job] = s.Sources
		}
	}
	v.run()
	if v.Tap != nil {
		v.Tap(ev, v.Out[start:])
	}
	return live
}

func (v *Verifier) emit(d Decision) { v.Out = append(v.Out, d) }

// logged emits what the tables just wrote to the trail about s, one DLog
// decision a line, so each line keeps its place among the decisions.
func (v *Verifier) logged(s *Verdict) {
	lines := v.log.Take()
	for i := range lines {
		v.emit(Decision{Kind: DLog, Sub: s.ID, Line: &lines[i]})
	}
}

func (v *Verifier) push(kind stepKind, sub, i int) {
	v.todo = append(v.todo, step{kind: kind, sub: sub, i: i})
}

// run works the pending steps until none is left.
func (v *Verifier) run() {
	for len(v.todo) > 0 {
		st := v.todo[len(v.todo)-1]
		v.todo = v.todo[:len(v.todo)-1]
		s := &v.Subs[st.sub]
		switch st.kind {
		case stLaunch:
			v.tryLaunch(s)
		case stDownstream:
			v.downstream(s, st.i)
		case stQuiz:
			picks := v.quizSample(s)
			s.quizzes = len(picks)
			v.emit(Decision{Kind: DQuiz, Sub: s.ID, Picks: picks})
		case stPropagate:
			if v.Offline && !s.Verified {
				for j := len(v.Subs) - 1; j >= 0; j-- {
					if slices.Contains(v.Subs[j].Upstream, s.ID) {
						v.push(stLaunch, j, 0)
					}
				}
			}
		case stBlame:
			// Our io-in digest conflicts with what an upstream primary
			// claimed to have stored: the upstream output is suspect (its
			// storage write or its deferred verification). Escalating it
			// restarts the cascade, which tears this attempt down too.
			if st.i+1 < len(v.blame) {
				v.push(stBlame, s.ID, st.i+1)
			}
			u := &v.Subs[v.blame[st.i]]
			v.faulty(u, 0)
			v.escalate(u, fmt.Sprintf("downstream sub-graph c%d read data conflicting with the stored-output digest", s.ID))
		}
	}
}

// ready reports whether every upstream sub-graph can supply input: a
// verified winner, or (offline mode) any completed replica.
func (v *Verifier) ready(s *Verdict) bool {
	for _, u := range s.Upstream {
		up := &v.Subs[u]
		if up.Verified {
			continue
		}
		if !v.Offline || up.Failed || up.firstCompleted() < 0 {
			return false
		}
	}
	return true
}

func (v *Verifier) tryLaunch(s *Verdict) {
	if s.Launched || s.Verified || s.Failed || !v.ready(s) {
		return
	}
	if s.Policy != 0 && s.R > MaxReplicas {
		v.emit(Decision{Kind: DTooWide, Sub: s.ID, N: s.R})
		return
	}
	if s.Policy == 0 {
		if s.Policy = v.decidePolicy(); s.Policy != PolicyFull {
			// Healthy history: one primary replica; verification comes
			// from quiz re-execution and storage-boundary audits.
			s.R = 1
		}
	}
	if s.SID != "" {
		s.stale = append(s.stale, s.SID)
	}
	s.SID = fmt.Sprintf("run%d-c%d-a%d", v.runSeq, s.ID, s.attempt)
	v.bySID[s.SID] = s.ID
	s.Sources = make(map[int]SourceRef)
	for _, u := range s.Upstream {
		up := &v.Subs[u]
		if up.Verified {
			s.Sources[u] = SourceRef{SID: up.SID, Replica: up.Winner, Verified: true}
		} else {
			s.Sources[u] = SourceRef{SID: up.SID, Replica: up.firstCompleted()}
		}
	}
	s.Skip, s.Run = v.covered(s)
	s.njobs = len(s.Tmpls)
	if s.Skip != nil {
		s.njobs = len(s.Run)
	} else if s.suffixBoost > 0 {
		// A full re-execution sheds the escalations its checkpointed
		// suffix earned and runs at the degree the prefix always had.
		s.R -= s.suffixBoost
		s.suffixBoost = 0
	}
	s.Launched = true
	s.TotalTries++
	s.quizzes, s.quizDone, s.quizFailed = 0, 0, false
	clear(s.cands)
	s.Reps = append(s.Reps[:0], make([]RepVerdict, s.R)...)
	v.emit(Decision{Kind: DLaunch, Sub: s.ID, Plan: s.LaunchPlan})
}

// covered decides which template jobs of s's attempt a checkpoint an
// earlier attempt saved covers (skip) and which run. Demand propagates
// in reverse topological order — a boundary job (no in-cluster
// dependent) is always demanded; a demanded job with a valid checkpoint
// is skipped and shields its prefix; a demanded job without one runs and
// demands its in-cluster dependencies. Jobs nobody demands neither run
// nor skip. Both are nil when nothing is covered, as always under a
// cheap policy (r=1, never f+1 agreement).
func (v *Verifier) covered(s *Verdict) (skip, run map[string]bool) {
	if s.Policy != PolicyFull || len(s.ckpts) == 0 {
		return nil, nil
	}
	skip = make(map[string]bool)
	run = make(map[string]bool)
	demanded := make(map[string]bool)
	for i := len(s.Tmpls) - 1; i >= 0; i-- {
		t := &s.Tmpls[i]
		if !t.Interior {
			demanded[t.ID] = true
		}
		if !demanded[t.ID] {
			continue
		}
		if s.ckptValid(t.ID) {
			skip[t.ID] = true
			continue
		}
		run[t.ID] = true
		for _, d := range t.Deps {
			demanded[d] = true
		}
	}
	if len(skip) == 0 {
		return nil, nil
	}
	return skip, run
}

// ckptValid reports whether template job id's checkpoint was saved by an
// attempt that read exactly the upstream (sid, replica) pairs s's does: a
// changed source (a restart after a deviant optimistic source, an
// upstream re-verification) means other input data.
func (s *Verdict) ckptValid(id string) bool {
	saved, ok := s.ckpts[id]
	return ok && maps.EqualFunc(saved, s.Sources, func(a, b SourceRef) bool {
		return a.SID == b.SID && a.Replica == b.Replica
	})
}

// quizSample draws the primary's tasks to re-execute (quizPick), in
// template order; an empty draw quizzes the last job's first task.
func (v *Verifier) quizSample(s *Verdict) []QuizTask {
	var picks []QuizTask
	last := -1
	for i, tasks := range s.cands {
		if tasks == nil {
			continue
		}
		last = i
		for _, tid := range tasks {
			if quizPick(s.SID, s.Tmpls[i].ID, tid, v.QuizFraction) {
				picks = append(picks, QuizTask{Tmpl: i, Task: tid})
			}
		}
	}
	if len(picks) == 0 && last >= 0 && len(s.cands[last]) > 0 {
		picks = append(picks, QuizTask{Tmpl: last, Task: s.cands[last][0]})
	}
	return picks
}

// digest stores a report and runs the approximate online comparison
// (§3.3): as soon as f+1 replicas agree on a chunk, any replica reporting
// a different sum for it is a commission fault — detected before the
// sub-job completes, and even if that replica is later cancelled.
func (v *Verifier) digest(s *Verdict, r digest.Report) {
	v.Reports++
	deviants := v.matcher.Observe(r)
	if _, saved := s.ckpts[r.Key.Task]; r.Key.Point == digest.CkptPoint && !saved {
		// Later agreeing votes find the checkpoint saved.
		if _, agreeing, ok := v.matcher.KeyAgreement(s.SID, r.Key); ok {
			v.emit(Decision{Kind: DCheckpointAgreed, Sub: s.ID, Replica: bits.TrailingZeros64(agreeing), Detail: r.Key.Task})
		}
	}
	for _, rep := range deviants {
		if rep < len(s.Reps) {
			v.faulty(s, rep)
		}
	}
}

// decide is the verdict on a replica's completion. Full: f+1 completed
// replicas with identical digest vectors verify the sub-graph, and the
// others are commission faults (§4.1, §4.3). Quiz and deferred run one
// primary: audit its storage boundaries, then verify it optimistically
// (deferred) or hold the verdict until the quiz set agrees (quiz); any
// mismatch escalates to full replication.
func (v *Verifier) decide(s *Verdict) {
	if s.Verified {
		return
	}
	if s.Policy == PolicyFull {
		v.done = v.done[:0]
		for i, rep := range s.Reps {
			if rep.Completed {
				v.done = append(v.done, i)
			}
		}
		majority, deviants, ok := v.matcher.Agreement(s.SID, v.done)
		switch {
		case ok:
			v.verify(s, majority[0], deviants)
		case len(v.done) == s.R:
			// Everyone replied and still no f+1 agreement: rerun with a
			// higher replication degree.
			v.retry(s, 0)
		}
		return
	}
	if v.audit(s) {
		return
	}
	v.push(stQuiz, s.ID, 0)
	if s.Policy == PolicyDeferred {
		// Optimistic: downstream proceeds now; quizzes may still revoke.
		v.verify(s, 0, nil)
	}
}

// audit cross-checks the primary's storage-boundary digests and
// escalates on a conflict, reporting whether it did. In-cluster, each
// consumed input's io-in digest must equal the producing job's io-out
// digest; a mismatch convicts the primary. Cross-cluster, it must equal
// the io-out digest the source replica reported under its own sid; a
// conflict implicates the upstream. Pairs where either side is absent
// (unaudited upstream policy) are skipped.
func (v *Verifier) audit(s *Verdict) bool {
	clean := true
	v.blame = v.blame[:0]
	for _, a := range s.Audits {
		in, ok := v.matcher.Lookup(s.SID, 0, digest.Key{SID: s.SID, Point: digest.AuditIOInPoint, Task: a.In})
		if !ok {
			continue
		}
		if a.From == s.ID {
			out, ok := v.matcher.Lookup(s.SID, 0, digest.Key{SID: s.SID, Point: digest.AuditIOOutPoint, Task: a.Out})
			if ok && out != in {
				clean = false
			}
			continue
		}
		src, ok := s.Sources[a.From]
		if !ok || src.Replica < 0 {
			continue
		}
		out, ok := v.matcher.Lookup(src.SID, src.Replica, digest.Key{SID: src.SID, Point: digest.AuditIOOutPoint, Task: a.Out})
		if ok && out != in && !slices.Contains(v.blame, a.From) {
			v.blame = append(v.blame, a.From)
		}
	}
	switch {
	case len(v.blame) > 0:
		v.push(stBlame, s.ID, 0)
	case !clean:
		// What a job read back from the DFS is not what the producing job
		// claims to have written.
		v.faulty(s, 0)
		v.escalate(s, "storage boundary digest mismatch")
	default:
		return false
	}
	return true
}

// faulty flags a commission-faulty replica once.
func (v *Verifier) faulty(s *Verdict, rep int) {
	if s.Reps[rep].Faulty {
		return
	}
	s.Reps[rep].Faulty = true
	v.charge(s, rep, analyze.CauseCommission)
}

// charge decides that replica rep of s failed for cause and blames its
// job cluster: a commission fault goes through Blame, and a timeout
// over-approximates (§4.3: suspicion on every node, nothing analyzed).
func (v *Verifier) charge(s *Verdict, rep int, cause analyze.AuditCause) {
	nodes := s.Reps[rep].jobCluster(false)
	v.emit(Decision{Kind: DFaulty, Sub: s.ID, Replica: rep, Cause: cause, Nodes: nodes})
	if cause == analyze.CauseCommission {
		Blame(v.fa, v.susp, NewNodeSet(nodes...))
	} else {
		v.susp.RecordFault(nodes)
	}
	v.logged(s)
}

// verify finalizes a sub-graph at winner, flags the deviants, then walks
// its consumers: restart those that optimistically read a replica the
// winner outvoted, launch the rest, and sweep superseded attempts.
func (v *Verifier) verify(s *Verdict, winner int, deviants []int) {
	s.Verified = true
	s.Winner = winner
	s.winnerFP = v.matcher.Fingerprint(s.SID, winner)
	v.emit(Decision{Kind: DVerified, Sub: s.ID, Replica: winner, N: len(deviants)})
	for _, rep := range deviants {
		v.faulty(s, rep)
	}
	v.push(stDownstream, s.ID, 0)
}

// downstream handles the first consumer of s from sub-graph i on, and
// past the last one sweeps s's superseded attempts: the walk's restart
// decisions were the last readers of their digest vectors.
func (v *Verifier) downstream(s *Verdict, i int) {
	for j := i; j < len(v.Subs); j++ {
		d := &v.Subs[j]
		if !slices.Contains(d.Upstream, s.ID) {
			continue
		}
		v.push(stDownstream, s.ID, j+1)
		v.push(stLaunch, j, 0)
		if src, ok := d.Sources[s.ID]; ok && d.Launched && !v.matchesWinner(s, src) {
			v.restart(d)
		}
		return
	}
	for _, sid := range s.stale {
		v.matcher.Forget(sid)
		delete(v.bySID, sid)
		v.emit(Decision{Kind: DForget, Sub: s.ID, Detail: sid})
	}
	s.stale = s.stale[:0]
}

// matchesWinner reports whether a consumed source replica produced the
// same digest vector as the verified winner (same attempt or not).
func (v *Verifier) matchesWinner(s *Verdict, src SourceRef) bool {
	if src.Verified || (src.SID == s.SID && src.Replica == s.Winner) {
		return true
	}
	return v.matcher.Fingerprint(src.SID, src.Replica) == s.winnerFP
}

// escalate abandons a cheap policy for a sub-graph that produced fault
// evidence. An already-verified (deferred) sub-graph is revoked through
// the restart cascade so consumers of its optimistic output are torn
// down with it; an unverified one goes through the ordinary retry.
func (v *Verifier) escalate(s *Verdict, detail string) {
	if s.Failed {
		return
	}
	v.emit(Decision{Kind: DEscalate, Sub: s.ID, Detail: detail})
	if s.Verified {
		v.full(s)
		v.restart(s)
		return
	}
	v.retry(s, 0)
}

// full is the one escalation rule: a sub-graph leaves its cheap policy
// for full replication at no less than the configured degree. It
// reports whether that raised r.
func (v *Verifier) full(s *Verdict) bool {
	s.Policy = PolicyFull
	if s.R < v.R {
		s.R = v.R
		return true
	}
	return false
}

// exhausted is the one attempt bound, checked before each re-run.
func (v *Verifier) exhausted(s *Verdict) bool { return s.TotalTries >= v.MaxAttempts }

// retry re-initiates a sub-graph with r+1 replicas and a doubled timeout
// (§4.2 step 6). On the timeout path the incomplete replicas' nodes are
// charged first (omission).
func (v *Verifier) retry(s *Verdict, cause analyze.AuditCause) {
	if s.Verified || s.Failed {
		return
	}
	if cause == analyze.CauseTimeout {
		for i, rep := range s.Reps {
			if !rep.Completed {
				v.charge(s, i, cause)
			}
		}
	}
	if v.exhausted(s) {
		s.Failed = true
		s.ckpts = nil
		v.emit(Decision{Kind: DFail, Sub: s.ID, Cause: cause})
		// Exhaustion outside a restart cascade: consumers launched against
		// this sub-graph's optimistic output must not keep running.
		v.restart(s)
		return
	}
	s.attempt++
	cheap := s.Policy != PolicyFull
	if !cheap || !v.full(s) {
		s.R++
	}
	if !cheap && s.Skip != nil {
		// The attempt that failed re-executed only a checkpointed suffix,
		// so this escalation is scoped to the suffix.
		s.suffixBoost++
	}
	s.TimeoutUs *= 2
	s.Launched = false
	v.emit(Decision{Kind: DRetry, Sub: s.ID, Cause: cause})
	v.push(stLaunch, s.ID, 0)
}

// restart re-runs a sub-graph (same r) because its optimistic input came
// from a replica later found deviant; consumers restart transitively.
// The cascade is collected up front, breadth-first and deduplicated, so
// a consumer reached through two upstream paths is charged once and
// every member is torn down even when one of them exhausts its attempts.
// Survivors relaunch upstream-first; consumers of a still-incomplete or
// failed upstream wait in tryLaunch.
func (v *Verifier) restart(root *Verdict) {
	v.cascade = append(v.cascade[:0], root.ID)
	for i := 0; i < len(v.cascade); i++ {
		for j := range v.Subs {
			d := &v.Subs[j]
			if d.Launched && slices.Contains(d.Upstream, v.cascade[i]) && !slices.Contains(v.cascade, j) {
				v.cascade = append(v.cascade, j)
			}
		}
	}
	for _, id := range v.cascade {
		s := &v.Subs[id]
		if s.Failed {
			continue
		}
		// Every member not failed is launched (a root is a launched
		// consumer, or verified by a live event). Its lineage is suspect,
		// so its checkpoints must not shortcut the re-run.
		s.Verified, s.Launched = false, false
		s.ckpts = nil
		s.attempt++
		if v.exhausted(s) {
			s.Failed = true
			v.emit(Decision{Kind: DFail, Sub: id})
			continue
		}
		v.emit(Decision{Kind: DRestart, Sub: id})
	}
	for i := len(v.cascade) - 1; i >= 0; i-- {
		v.push(stLaunch, v.cascade[i], 0)
	}
}
