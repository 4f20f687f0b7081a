package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
)

// The verifier decides; the Controller acts (DESIGN.md §5, "The verifier
// as a state machine"). Its state is the matcher, the suspicion table
// and fault analyzer it was handed, each sub-graph's verdict state, its
// template DAG and the upstream topology, and it changes only in apply,
// so the ordered events alone determine every decision — verdicts,
// blame, and each launch's policy, sources, checkpointed suffix and quiz
// sample: replaying them into a fresh verifier gives the same decision
// stream, which is what lets the verifier be replicated (§5.2) and
// replayed. It holds no engine, storage, tracer or trail and reads no
// clock.

type eventKind uint8

const (
	evDigest     eventKind = iota + 1 // a digest report
	evJobDone                         // one job of a replica finished; its last completes the replica
	evQuiz                            // a quiz re-execution committed its digests
	evTimeout                         // an attempt's verifier timer fired
	evStart                           // a run began: launch its roots
	evAssigned                        // a job of a replica first landed on a node
	evCheckpoint                      // a job's agreed output landed under ckpt/
)

// event is one input to the verifier, passed by value. sid names the
// attempt it speaks for; the other fields are set per kind.
type event struct {
	kind    eventKind
	sid     string
	replica int            // evAssigned, evJobDone
	node    cluster.NodeID // evAssigned
	job     string         // evAssigned, evJobDone, evCheckpoint: the template job
	// evJobDone of an attempt under a cheap policy: the job's task IDs,
	// the quiz sample's candidates.
	tasks  []string
	report digest.Report // evDigest
}

type decisionKind uint8

// Decisions, each about sub-graph sub, in the order the controller acts.
const (
	dFaulty           decisionKind = iota + 1 // replica is faulty (cause): record the mismatch
	dVerified                                 // verified at winner over n deviants: record it, kill the rest
	dRetry                                    // re-initiated at a higher degree (cause): kill, record
	dEscalate                                 // a cheap policy saw fault evidence (detail): record
	dRestart                                  // restarted in a cascade: kill, drop checkpoints, record
	dFail                                     // attempts exhausted (cause): kill, drop checkpoints, record, fail the run
	dCheckpointAgreed                         // f+1 replicas agree on a job's output: save replica's
	dQuiz                                     // quiz the primary's tasks in picks
	dLaunch                                   // inputs ready: launch an attempt by plan
	dTooWide                                  // needs n replicas, more than the matcher tallies: fail the run
	dForget                                   // superseded attempt detail is swept: forget it in the engine
)

// decision is one verdict the controller carries out.
type decision struct {
	kind    decisionKind
	sub     int
	replica int                // dFaulty: the replica; dVerified: the winner; dCheckpointAgreed: the one to save
	cause   analyze.AuditCause // dFaulty, dRetry, dFail
	n       int                // dVerified: replicas outvoted; dTooWide: replicas needed
	detail  string             // dEscalate: the evidence; dForget: the sid; dCheckpointAgreed: the template job
	nodes   []cluster.NodeID   // dFaulty: the replica's nodes, sorted
	picks   []quizTask         // dQuiz
	plan    launchPlan         // dLaunch
	// logged counts the table lines (verifier.lines) logged before the
	// decision in its batch: the trail holds those first, and the ones its
	// own blame logged right after it.
	logged int
}

// launchPlan is what one attempt of a sub-graph runs with, decided at
// launch. The dLaunch decision carries a copy: the same batch may tear
// the attempt down and plan the next before the controller acts.
type launchPlan struct {
	sid        string
	policy     Policy // resolved at first launch (decidePolicy); escalation rewrites it to full
	r          int
	totalTries int // launches of the sub-graph, this one included
	timeoutUs  int64
	sources    map[int]sourceRef // the upstream replica read, per upstream sub-graph
	// skip holds the template jobs whose consumers read a checkpoint
	// instead, run the ones submitted; both are nil when all are.
	skip, run map[string]bool
}

// sourceRef names the upstream replica an attempt reads.
type sourceRef struct {
	sid      string
	replica  int
	verified bool
}

// quizTask is a task of the primary's template job tmpl to re-execute.
type quizTask struct {
	tmpl int
	task string
}

// tmpl is one template job of a sub-graph, as launch plans read it.
type tmpl struct {
	id       string
	spec     *mapred.JobSpec // the compiled job replicas clone; the verifier never reads it
	deps     []string        // the template jobs of the same sub-graph it reads
	interior bool            // another job of the sub-graph reads it
}

// auditPair is one input of a sub-graph's job that another job of the
// run produced: the io-in digest task that read it, the producing
// template job, and the sub-graph that job belongs to.
type auditPair struct {
	in   string
	out  string
	from int
}

type repVerdict struct {
	done      int // jobs finished
	completed bool
	faulty    bool
	placed    []placement
	ranOn     int // nodes its finished jobs ran on, which outlives placed for Explain
}

// placement is one node a replica's template job was assigned to.
type placement struct {
	node cluster.NodeID
	job  string
	ran  bool // the job finished
}

// finish marks job's placements finished.
func (r *repVerdict) finish(job string) {
	for i := range r.placed {
		if p := &r.placed[i]; p.job == job {
			if !slices.ContainsFunc(r.placed, func(q placement) bool { return q.ran && q.node == p.node }) {
				r.ranOn++
			}
			p.ran = true
		}
	}
}

// jobCluster returns the nodes the replica's jobs, or only its finished
// ones, were assigned to, sorted: its job cluster (§4.3), which with
// running and hung jobs included is what a fault is charged to.
func (r *repVerdict) jobCluster(finished bool) []cluster.NodeID {
	nodes := make([]cluster.NodeID, 0, len(r.placed))
	for _, p := range r.placed {
		if p.ran || !finished {
			nodes = append(nodes, p.node)
		}
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// verdict is one sub-graph's verdict state.
type verdict struct {
	id       int
	upstream []int
	audits   []auditPair
	tmpls    []tmpl // topological

	// launchPlan is the current attempt's; from a retry on, r and
	// timeoutUs size the next one, which attempt numbers.
	launchPlan
	attempt int
	stale   []string // superseded attempts, swept once the sub-graph verifies
	// suffixBoost counts the timeout escalations of r earned while
	// attempts re-executed only a checkpointed suffix; a later full
	// re-execution sheds them, since the checkpointed-prefix jobs were
	// never implicated (suffix-scoped replica sizing, DESIGN.md §12).
	suffixBoost int
	njobs       int // jobs each replica of the attempt runs
	launched    bool
	reps        []repVerdict
	// ckpts holds, per template job checkpointed, the sources of the
	// attempt that saved it.
	ckpts map[string]map[int]sourceRef
	// cands holds, per template job the primary finished under a cheap
	// policy, its task IDs; quizzes counts the tasks drawn, quizDone the
	// quizzes in, and quizFailed latches the first mismatch so
	// stragglers don't escalate twice.
	cands      [][]string
	quizzes    int
	quizDone   int
	quizFailed bool
	verified   bool
	failed     bool
	winner     int
	winnerFP   digest.Sum
}

// firstCompleted picks the optimistic source replica: the first
// completed one the online digest comparison has not already flagged as
// deviant (consuming a known-corrupt output would guarantee a restart).
func (s *verdict) firstCompleted() int {
	for i, rep := range s.reps {
		if rep.completed && !rep.faulty {
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

type verifier struct {
	matcher      *Matcher
	susp         *SuspicionTable
	fa           *FaultAnalyzer
	nodes        []*cluster.Node // for PolicyAuto
	r            int             // the configured degree
	maxAttempts  int
	timeoutUs    int64
	offline      bool
	policy       Policy
	quizFraction float64

	runSeq  int
	subs    []verdict
	bySID   map[string]int // every attempt not yet forgotten
	reports int64

	// out holds decisions until the controller acts, lines what the
	// tables logged into log (nil with no trail attached) meanwhile.
	out   []decision
	lines []analyze.AuditEvent
	log   *analyze.AuditTrail
	todo  []step
	// buffers reused across events
	done, blame, cascade []int

	// tap, when set, sees every event with its decisions and lines.
	tap func(ev event, ds []decision, lines []analyze.AuditEvent)
}

// newVerifier builds a verifier over cfg (defaults applied) that alone
// writes susp and fa.
func newVerifier(cfg Config, susp *SuspicionTable, fa *FaultAnalyzer, nodes []*cluster.Node) *verifier {
	return &verifier{
		matcher:      NewMatcher(cfg.F),
		susp:         susp,
		fa:           fa,
		nodes:        nodes,
		r:            cfg.R,
		maxAttempts:  cfg.MaxAttempts,
		timeoutUs:    cfg.TimeoutUs,
		offline:      cfg.Offline,
		policy:       cfg.VerifyPolicy,
		quizFraction: cfg.QuizFraction,
		bySID:        make(map[string]int),
		out:          make([]decision, 0, 16),
		todo:         make([]step, 0, 16),
		done:         make([]int, 0, 8),
	}
}

// attach routes what the tables log into the verifier's lines when on,
// and turns their logging off otherwise.
func (v *verifier) attach(on bool) {
	v.log = nil
	if on {
		v.log = analyze.NewAuditTrail(nil)
	}
	v.susp.Audit, v.fa.Audit = v.log, v.log
}

// reset starts run runSeq over subs, of which only id, upstream, audits
// and tmpls are read.
func (v *verifier) reset(runSeq int, subs []verdict) {
	for i := range subs {
		subs[i].r, subs[i].timeoutUs = v.r, v.timeoutUs
	}
	v.runSeq = runSeq
	v.subs = subs
	v.reports = 0
}

// sweep ends the run: it forgets every attempt left, returning their
// sids sorted, and drops node placements, checkpoint signatures and quiz
// candidates. The verdicts stay.
func (v *verifier) sweep() []string {
	sids := make([]string, 0, len(v.bySID))
	for sid := range v.bySID {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	for _, sid := range sids {
		v.matcher.Forget(sid)
		delete(v.bySID, sid)
	}
	for i := range v.subs {
		s := &v.subs[i]
		for j := range s.reps {
			s.reps[j].placed = nil
		}
		s.ckpts, s.cands = nil, nil
	}
	return sids
}

// apply is the verifier's one entry point. An event for an attempt that
// is no longer its sub-graph's current one, that a retry or restart
// cascade tore down, or that belongs to a failed sub-graph is stale:
// apply drops it and reports false.
func (v *verifier) apply(ev event) bool {
	start, lines := len(v.out), len(v.lines)
	live := ev.kind == evStart
	if live {
		for i := len(v.subs) - 1; i >= 0; i-- {
			if len(v.subs[i].upstream) == 0 {
				v.push(stLaunch, i, 0)
			}
		}
	} else if i, ok := v.bySID[ev.sid]; ok && v.subs[i].sid == ev.sid && v.subs[i].launched && !v.subs[i].failed {
		live = true
		s := &v.subs[i]
		switch ev.kind {
		case evAssigned:
			rep := &s.reps[ev.replica]
			rep.placed = append(rep.placed, placement{node: ev.node, job: ev.job})
		case evDigest:
			v.digest(s, ev.report)
		case evJobDone:
			if ev.tasks != nil {
				if s.cands == nil {
					s.cands = make([][]string, len(s.tmpls))
				}
				s.cands[slices.IndexFunc(s.tmpls, func(t tmpl) bool { return t.id == ev.job })] = ev.tasks
			}
			rep := &s.reps[ev.replica]
			rep.finish(ev.job)
			rep.done++
			if rep.done == s.njobs {
				rep.completed = true
				// The suspicion table counts the job cluster before any
				// verdict on it.
				v.susp.RecordJob(rep.jobCluster(true))
				v.logged()
				v.push(stPropagate, s.id, 0)
				v.decide(s)
			}
		case evQuiz:
			s.quizDone++
			switch {
			case s.quizFailed:
			case !v.matcher.QuizAgrees(s.sid, 0, quizReplica):
				// A trusted re-execution of the primary's own task, against
				// the primary's own stored inputs, produced different
				// records: the primary computed wrongly, and with r=1 there
				// is no honest majority to fall back on — rerun at full r.
				s.quizFailed = true
				v.faulty(s, 0)
				v.escalate(s, "quiz re-execution digest mismatch")
			case s.quizDone == s.quizzes && s.policy == PolicyQuiz && !s.verified:
				v.verify(s, 0, nil)
			}
		case evTimeout:
			// retry ignores an attempt already verified.
			v.retry(s, analyze.CauseTimeout)
		case evCheckpoint:
			if s.ckpts == nil {
				s.ckpts = make(map[string]map[int]sourceRef)
			}
			s.ckpts[ev.job] = s.sources
		}
	}
	v.run()
	if v.tap != nil {
		v.tap(ev, v.out[start:], v.lines[lines:])
	}
	return live
}

func (v *verifier) emit(d decision) {
	d.logged = len(v.lines)
	v.out = append(v.out, d)
}

// logged moves what the tables just wrote to the trail into lines.
func (v *verifier) logged() {
	if v.log != nil {
		v.lines = append(v.lines, v.log.Take()...)
	}
}

func (v *verifier) push(kind stepKind, sub, i int) {
	v.todo = append(v.todo, step{kind: kind, sub: sub, i: i})
}

// run works the pending steps until none is left.
func (v *verifier) run() {
	for len(v.todo) > 0 {
		st := v.todo[len(v.todo)-1]
		v.todo = v.todo[:len(v.todo)-1]
		s := &v.subs[st.sub]
		switch st.kind {
		case stLaunch:
			v.tryLaunch(s)
		case stDownstream:
			v.downstream(s, st.i)
		case stQuiz:
			picks := v.quizSample(s)
			s.quizzes = len(picks)
			v.emit(decision{kind: dQuiz, sub: s.id, picks: picks})
		case stPropagate:
			if v.offline && !s.verified {
				for j := len(v.subs) - 1; j >= 0; j-- {
					if slices.Contains(v.subs[j].upstream, s.id) {
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
				v.push(stBlame, s.id, st.i+1)
			}
			u := &v.subs[v.blame[st.i]]
			v.faulty(u, 0)
			v.escalate(u, fmt.Sprintf("downstream sub-graph c%d read data conflicting with the stored-output digest", s.id))
		}
	}
}

// ready reports whether every upstream sub-graph can supply input: a
// verified winner, or (offline mode) any completed replica.
func (v *verifier) ready(s *verdict) bool {
	for _, u := range s.upstream {
		up := &v.subs[u]
		if up.verified {
			continue
		}
		if !v.offline || up.failed || up.firstCompleted() < 0 {
			return false
		}
	}
	return true
}

func (v *verifier) tryLaunch(s *verdict) {
	if s.launched || s.verified || s.failed || !v.ready(s) {
		return
	}
	if s.policy != 0 && s.r > MaxReplicas {
		v.emit(decision{kind: dTooWide, sub: s.id, n: s.r})
		return
	}
	if s.policy == 0 {
		if s.policy = v.decidePolicy(); s.policy != PolicyFull {
			// Healthy history: one primary replica; verification comes
			// from quiz re-execution and storage-boundary audits.
			s.r = 1
		}
	}
	if s.sid != "" {
		s.stale = append(s.stale, s.sid)
	}
	s.sid = fmt.Sprintf("run%d-c%d-a%d", v.runSeq, s.id, s.attempt)
	v.bySID[s.sid] = s.id
	s.sources = make(map[int]sourceRef)
	for _, u := range s.upstream {
		up := &v.subs[u]
		if up.verified {
			s.sources[u] = sourceRef{sid: up.sid, replica: up.winner, verified: true}
		} else {
			s.sources[u] = sourceRef{sid: up.sid, replica: up.firstCompleted()}
		}
	}
	s.skip, s.run = v.covered(s)
	s.njobs = len(s.tmpls)
	if s.skip != nil {
		s.njobs = len(s.run)
	} else if s.suffixBoost > 0 {
		// A full re-execution sheds the escalations its checkpointed
		// suffix earned and runs at the degree the prefix always had.
		s.r -= s.suffixBoost
		s.suffixBoost = 0
	}
	s.launched = true
	s.totalTries++
	s.quizzes, s.quizDone, s.quizFailed = 0, 0, false
	clear(s.cands)
	s.reps = append(s.reps[:0], make([]repVerdict, s.r)...)
	v.emit(decision{kind: dLaunch, sub: s.id, plan: s.launchPlan})
}

// covered decides which template jobs of s's attempt a checkpoint an
// earlier attempt saved covers (skip) and which run. Demand propagates
// in reverse topological order — a boundary job (no in-cluster
// dependent) is always demanded; a demanded job with a valid checkpoint
// is skipped and shields its prefix; a demanded job without one runs and
// demands its in-cluster dependencies. Jobs nobody demands neither run
// nor skip. Both are nil when nothing is covered, as always under a
// cheap policy (r=1, never f+1 agreement).
func (v *verifier) covered(s *verdict) (skip, run map[string]bool) {
	if s.policy != PolicyFull || len(s.ckpts) == 0 {
		return nil, nil
	}
	skip = make(map[string]bool)
	run = make(map[string]bool)
	demanded := make(map[string]bool)
	for i := len(s.tmpls) - 1; i >= 0; i-- {
		t := &s.tmpls[i]
		if !t.interior {
			demanded[t.id] = true
		}
		if !demanded[t.id] {
			continue
		}
		if s.ckptValid(t.id) {
			skip[t.id] = true
			continue
		}
		run[t.id] = true
		for _, d := range t.deps {
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
func (s *verdict) ckptValid(id string) bool {
	saved, ok := s.ckpts[id]
	return ok && maps.EqualFunc(saved, s.sources, func(a, b sourceRef) bool {
		return a.sid == b.sid && a.replica == b.replica
	})
}

// quizSample draws the primary's tasks to re-execute (quizPick), in
// template order; an empty draw quizzes the last job's first task.
func (v *verifier) quizSample(s *verdict) []quizTask {
	var picks []quizTask
	last := -1
	for i, tasks := range s.cands {
		if tasks == nil {
			continue
		}
		last = i
		for _, tid := range tasks {
			if quizPick(s.sid, s.tmpls[i].id, tid, v.quizFraction) {
				picks = append(picks, quizTask{tmpl: i, task: tid})
			}
		}
	}
	if len(picks) == 0 && last >= 0 && len(s.cands[last]) > 0 {
		picks = append(picks, quizTask{tmpl: last, task: s.cands[last][0]})
	}
	return picks
}

// digest stores a report and runs the approximate online comparison
// (§3.3): as soon as f+1 replicas agree on a chunk, any replica reporting
// a different sum for it is a commission fault — detected before the
// sub-job completes, and even if that replica is later cancelled.
func (v *verifier) digest(s *verdict, r digest.Report) {
	v.reports++
	deviants := v.matcher.Observe(r)
	if _, saved := s.ckpts[r.Key.Task]; r.Key.Point == mapred.CkptPoint && !saved {
		// Later agreeing votes find the checkpoint saved.
		if _, agreeing, ok := v.matcher.KeyAgreement(s.sid, r.Key); ok {
			v.emit(decision{kind: dCheckpointAgreed, sub: s.id, replica: bits.TrailingZeros64(agreeing), detail: r.Key.Task})
		}
	}
	for _, rep := range deviants {
		if rep < len(s.reps) {
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
func (v *verifier) decide(s *verdict) {
	if s.verified {
		return
	}
	if s.policy == PolicyFull {
		v.done = v.done[:0]
		for i, rep := range s.reps {
			if rep.completed {
				v.done = append(v.done, i)
			}
		}
		majority, deviants, ok := v.matcher.Agreement(s.sid, v.done)
		switch {
		case ok:
			v.verify(s, majority[0], deviants)
		case len(v.done) == s.r:
			// Everyone replied and still no f+1 agreement: rerun with a
			// higher replication degree.
			v.retry(s, 0)
		}
		return
	}
	if v.audit(s) {
		return
	}
	v.push(stQuiz, s.id, 0)
	if s.policy == PolicyDeferred {
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
func (v *verifier) audit(s *verdict) bool {
	clean := true
	v.blame = v.blame[:0]
	for _, a := range s.audits {
		in, ok := v.matcher.Lookup(s.sid, 0, digest.Key{SID: s.sid, Point: mapred.AuditIOInPoint, Task: a.in})
		if !ok {
			continue
		}
		if a.from == s.id {
			out, ok := v.matcher.Lookup(s.sid, 0, digest.Key{SID: s.sid, Point: mapred.AuditIOOutPoint, Task: a.out})
			if ok && out != in {
				clean = false
			}
			continue
		}
		src, ok := s.sources[a.from]
		if !ok || src.replica < 0 {
			continue
		}
		out, ok := v.matcher.Lookup(src.sid, src.replica, digest.Key{SID: src.sid, Point: mapred.AuditIOOutPoint, Task: a.out})
		if ok && out != in && !slices.Contains(v.blame, a.from) {
			v.blame = append(v.blame, a.from)
		}
	}
	switch {
	case len(v.blame) > 0:
		v.push(stBlame, s.id, 0)
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
func (v *verifier) faulty(s *verdict, rep int) {
	if s.reps[rep].faulty {
		return
	}
	s.reps[rep].faulty = true
	v.charge(s, rep, analyze.CauseCommission)
}

// charge decides that replica rep of s failed for cause and blames its
// job cluster: the suspicion table counts a fault on each node, and the
// fault analyzer hears of a commission fault (a timeout
// over-approximates, §4.3: suspicion only).
func (v *verifier) charge(s *verdict, rep int, cause analyze.AuditCause) {
	nodes := s.reps[rep].jobCluster(false)
	v.emit(decision{kind: dFaulty, sub: s.id, replica: rep, cause: cause, nodes: nodes})
	v.susp.RecordFault(nodes)
	if cause == analyze.CauseCommission {
		v.fa.Report(NewNodeSet(nodes...))
	}
	v.logged()
}

// verify finalizes a sub-graph at winner, flags the deviants, then walks
// its consumers: restart those that optimistically read a replica the
// winner outvoted, launch the rest, and sweep superseded attempts.
func (v *verifier) verify(s *verdict, winner int, deviants []int) {
	s.verified = true
	s.winner = winner
	s.winnerFP = v.matcher.Fingerprint(s.sid, winner)
	v.emit(decision{kind: dVerified, sub: s.id, replica: winner, n: len(deviants)})
	for _, rep := range deviants {
		v.faulty(s, rep)
	}
	v.push(stDownstream, s.id, 0)
}

// downstream handles the first consumer of s from sub-graph i on, and
// past the last one sweeps s's superseded attempts: the walk's restart
// decisions were the last readers of their digest vectors.
func (v *verifier) downstream(s *verdict, i int) {
	for j := i; j < len(v.subs); j++ {
		d := &v.subs[j]
		if !slices.Contains(d.upstream, s.id) {
			continue
		}
		v.push(stDownstream, s.id, j+1)
		v.push(stLaunch, j, 0)
		if src, ok := d.sources[s.id]; ok && d.launched && !v.matchesWinner(s, src) {
			v.restart(d)
		}
		return
	}
	for _, sid := range s.stale {
		v.matcher.Forget(sid)
		delete(v.bySID, sid)
		v.emit(decision{kind: dForget, sub: s.id, detail: sid})
	}
	s.stale = s.stale[:0]
}

// matchesWinner reports whether a consumed source replica produced the
// same digest vector as the verified winner (same attempt or not).
func (v *verifier) matchesWinner(s *verdict, src sourceRef) bool {
	if src.verified || (src.sid == s.sid && src.replica == s.winner) {
		return true
	}
	return v.matcher.Fingerprint(src.sid, src.replica) == s.winnerFP
}

// escalate abandons a cheap policy for a sub-graph that produced fault
// evidence. An already-verified (deferred) sub-graph is revoked through
// the restart cascade so consumers of its optimistic output are torn
// down with it; an unverified one goes through the ordinary retry.
func (v *verifier) escalate(s *verdict, detail string) {
	if s.failed {
		return
	}
	v.emit(decision{kind: dEscalate, sub: s.id, detail: detail})
	if s.verified {
		v.full(s)
		v.restart(s)
		return
	}
	v.retry(s, 0)
}

// full is the one escalation rule: a sub-graph leaves its cheap policy
// for full replication at no less than the configured degree. It
// reports whether that raised r.
func (v *verifier) full(s *verdict) bool {
	s.policy = PolicyFull
	if s.r < v.r {
		s.r = v.r
		return true
	}
	return false
}

// exhausted is the one attempt bound, checked before each re-run.
func (v *verifier) exhausted(s *verdict) bool { return s.totalTries >= v.maxAttempts }

// retry re-initiates a sub-graph with r+1 replicas and a doubled timeout
// (§4.2 step 6). On the timeout path the incomplete replicas' nodes are
// charged first (omission).
func (v *verifier) retry(s *verdict, cause analyze.AuditCause) {
	if s.verified || s.failed {
		return
	}
	if cause == analyze.CauseTimeout {
		for i, rep := range s.reps {
			if !rep.completed {
				v.charge(s, i, cause)
			}
		}
	}
	if v.exhausted(s) {
		s.failed = true
		s.ckpts = nil
		v.emit(decision{kind: dFail, sub: s.id, cause: cause})
		// Exhaustion outside a restart cascade: consumers launched against
		// this sub-graph's optimistic output must not keep running.
		v.restart(s)
		return
	}
	s.attempt++
	cheap := s.policy != PolicyFull
	if !cheap || !v.full(s) {
		s.r++
	}
	if !cheap && s.skip != nil {
		// The attempt that failed re-executed only a checkpointed suffix,
		// so this escalation is scoped to the suffix.
		s.suffixBoost++
	}
	s.timeoutUs *= 2
	s.launched = false
	v.emit(decision{kind: dRetry, sub: s.id, cause: cause})
	v.push(stLaunch, s.id, 0)
}

// restart re-runs a sub-graph (same r) because its optimistic input came
// from a replica later found deviant; consumers restart transitively.
// The cascade is collected up front, breadth-first and deduplicated, so
// a consumer reached through two upstream paths is charged once and
// every member is torn down even when one of them exhausts its attempts.
// Survivors relaunch upstream-first; consumers of a still-incomplete or
// failed upstream wait in tryLaunch.
func (v *verifier) restart(root *verdict) {
	v.cascade = append(v.cascade[:0], root.id)
	for i := 0; i < len(v.cascade); i++ {
		for j := range v.subs {
			d := &v.subs[j]
			if d.launched && slices.Contains(d.upstream, v.cascade[i]) && !slices.Contains(v.cascade, j) {
				v.cascade = append(v.cascade, j)
			}
		}
	}
	for _, id := range v.cascade {
		s := &v.subs[id]
		if s.failed {
			continue
		}
		// Every member not failed is launched (a root is a launched
		// consumer, or verified by a live event). Its lineage is suspect,
		// so its checkpoints must not shortcut the re-run.
		s.verified, s.launched = false, false
		s.ckpts = nil
		s.attempt++
		if v.exhausted(s) {
			s.failed = true
			v.emit(decision{kind: dFail, sub: id})
			continue
		}
		v.emit(decision{kind: dRestart, sub: id})
	}
	for i := len(v.cascade) - 1; i >= 0; i-- {
		v.push(stLaunch, v.cascade[i], 0)
	}
}
