package core

import (
	"fmt"
	"slices"

	"clusterbft/internal/analyze"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
)

// The verifier decides; the Controller acts (DESIGN.md §5, "The verifier
// as a state machine"). Its state is the matcher, each sub-graph's
// verdict state and the upstream topology, and it changes only in apply,
// so the ordered events alone determine every decision: replaying them
// into a fresh verifier gives the same decision stream, which is what
// lets the verifier be replicated (§5.2) and replayed. It holds no
// engine, storage, tracer or trail and reads no clock.

type eventKind uint8

const (
	evDigest  eventKind = iota + 1 // a digest report
	evJobDone                      // one job of a replica finished; its last completes the replica
	evQuiz                         // a quiz re-execution committed its digests
	evTimeout                      // an attempt's verifier timer fired
	evLaunch                       // the controller launched an attempt
)

// event is one input to the verifier, passed by value. sid names the
// attempt it speaks for; the other fields are set per kind.
type event struct {
	kind    eventKind
	sid     string
	replica int           // evJobDone
	quizzes int           // evQuiz: how many quizzes the attempt started
	report  digest.Report // evDigest
	// evLaunch: the sub-graph and what the controller chose for it.
	sub     int
	policy  Policy
	r       int
	jobs    int  // jobs each replica runs
	suffix  bool // only a checkpointed suffix runs
	sources map[int]sourceRef
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
	dCheckpointAgreed                         // reps agree on key's sum: save one agreeing replica's output
	dQuiz                                     // quiz the primary's tasks
	dLaunch                                   // inputs ready: launch an attempt, and answer with evLaunch
	dTooWide                                  // needs n replicas, more than the matcher tallies: fail the run
	dForget                                   // superseded attempt detail is swept: forget it in the engine
)

// decision is one verdict the controller carries out.
type decision struct {
	kind    decisionKind
	sub     int
	replica int                // dFaulty: the replica; dVerified: the winner
	cause   analyze.AuditCause // dFaulty, dRetry, dFail
	n       int                // dVerified: replicas outvoted; dTooWide: replicas needed
	reps    uint64             // dCheckpointAgreed: the agreeing replicas
	detail  string             // dEscalate: the evidence; dForget: the sid
	key     digest.Key         // dCheckpointAgreed
	sum     digest.Sum         // dCheckpointAgreed
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
}

// verdict is one sub-graph's verdict state.
type verdict struct {
	id       int
	upstream []int
	audits   []auditPair

	sid   string
	stale []string // superseded attempts, swept once the sub-graph verifies
	// attempt numbers the next sid; totalTries counts launches.
	attempt    int
	totalTries int
	r          int
	timeoutUs  int64
	// suffixBoost counts the timeout escalations of r earned while
	// attempts re-executed only a checkpointed suffix; a later full
	// re-execution sheds them, since the checkpointed-prefix jobs were
	// never implicated (suffix-scoped replica sizing, DESIGN.md §12).
	suffixBoost int
	njobs       int // jobs each replica of the attempt runs
	suffix      bool
	// policy is resolved at first launch (decidePolicy); escalation
	// rewrites it to PolicyFull.
	policy   Policy
	sources  map[int]sourceRef
	launched bool
	reps     []repVerdict
	// quizDone counts the attempt's quizzes in; quizFailed latches the
	// first mismatch so stragglers don't escalate twice.
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

// step is pending work. Work that follows a launch waits for the launch
// event, since what it decides depends on the launched attempt.
type step struct {
	kind   stepKind
	sub, i int
}

type verifier struct {
	matcher     *Matcher
	r           int // the configured degree
	maxAttempts int
	timeoutUs   int64
	offline     bool

	subs    []verdict
	bySID   map[string]int // every attempt not yet forgotten
	reports int64

	// out holds decisions until the controller acts; todo is the pending
	// work, paused while a decided launch has not been reported.
	out    []decision
	todo   []step
	paused bool
	// buffers reused across events
	done, blame, cascade []int

	// tap, when set, sees every event and the decisions it produced.
	tap func(ev event, ds []decision)
}

func newVerifier(cfg Config) *verifier {
	return &verifier{
		matcher:     NewMatcher(cfg.F),
		r:           cfg.R,
		maxAttempts: cfg.MaxAttempts,
		timeoutUs:   cfg.TimeoutUs,
		offline:     cfg.Offline,
		bySID:       make(map[string]int),
		out:         make([]decision, 0, 16),
		todo:        make([]step, 0, 16),
		done:        make([]int, 0, 8),
	}
}

// reset starts a run over subs, of which only id, upstream and audits
// are read.
func (v *verifier) reset(subs []verdict) {
	for i := range subs {
		subs[i].r, subs[i].timeoutUs = v.r, v.timeoutUs
	}
	v.subs = subs
	v.reports = 0
}

// apply is the verifier's one entry point. An event for an attempt that
// is no longer its sub-graph's current one, or for a failed sub-graph,
// is stale: apply drops it and reports false.
func (v *verifier) apply(ev event) bool {
	start := len(v.out)
	live := ev.kind == evLaunch
	if live {
		v.launch(ev)
	} else if i, ok := v.bySID[ev.sid]; ok && v.subs[i].sid == ev.sid && !v.subs[i].failed {
		live = true
		s := &v.subs[i]
		switch ev.kind {
		case evDigest:
			v.digest(s, ev.report)
		case evJobDone:
			rep := &s.reps[ev.replica]
			rep.done++
			if rep.done == s.njobs {
				rep.completed = true
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
			case s.quizDone == ev.quizzes && s.policy == PolicyQuiz && !s.verified:
				v.verify(s, 0, nil)
			}
		case evTimeout:
			// A torn-down attempt waits for its relaunch, which arms its own
			// timer; retry ignores one already verified.
			if s.launched {
				v.retry(s, analyze.CauseTimeout)
			}
		}
	}
	v.run()
	if v.tap != nil {
		v.tap(ev, v.out[start:])
	}
	return live
}

func (v *verifier) emit(d decision) { v.out = append(v.out, d) }

func (v *verifier) push(kind stepKind, sub, i int) {
	v.todo = append(v.todo, step{kind: kind, sub: sub, i: i})
}

// run works the pending steps until none is left or a launch is due.
func (v *verifier) run() {
	for !v.paused && len(v.todo) > 0 {
		st := v.todo[len(v.todo)-1]
		v.todo = v.todo[:len(v.todo)-1]
		s := &v.subs[st.sub]
		switch st.kind {
		case stLaunch:
			v.tryLaunch(s)
		case stDownstream:
			v.downstream(s, st.i)
		case stQuiz:
			v.emit(decision{kind: dQuiz, sub: s.id})
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

// launch takes in an attempt the controller started and resumes the
// work that waited for it.
func (v *verifier) launch(ev event) {
	s := &v.subs[ev.sub]
	if s.sid != "" {
		s.stale = append(s.stale, s.sid)
	}
	s.sid = ev.sid
	v.bySID[ev.sid] = ev.sub
	s.policy, s.r, s.njobs, s.suffix, s.sources = ev.policy, ev.r, ev.jobs, ev.suffix, ev.sources
	if !ev.suffix && s.suffixBoost > 0 {
		// A full re-execution sheds the escalations its checkpointed
		// suffix earned and runs at the degree the prefix always had.
		s.r -= s.suffixBoost
		s.suffixBoost = 0
	}
	s.launched = true
	s.totalTries++
	s.quizDone, s.quizFailed = 0, false
	s.reps = append(s.reps[:0], make([]repVerdict, s.r)...)
	v.paused = false
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
	v.emit(decision{kind: dLaunch, sub: s.id})
	v.paused = true
}

// digest stores a report and runs the approximate online comparison
// (§3.3): as soon as f+1 replicas agree on a chunk, any replica reporting
// a different sum for it is a commission fault — detected before the
// sub-job completes, and even if that replica is later cancelled.
func (v *verifier) digest(s *verdict, r digest.Report) {
	v.reports++
	deviants := v.matcher.Observe(r)
	if r.Key.Point == mapred.CkptPoint {
		if sum, agreeing, ok := v.matcher.KeyAgreement(s.sid, r.Key); ok {
			v.emit(decision{kind: dCheckpointAgreed, sub: s.id, key: r.Key, sum: sum, reps: agreeing})
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
	v.emit(decision{kind: dFaulty, sub: s.id, replica: rep, cause: analyze.CauseCommission})
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
				v.emit(decision{kind: dFaulty, sub: s.id, replica: i, cause: cause})
			}
		}
	}
	if v.exhausted(s) {
		s.failed = true
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
	if !cheap && s.suffix {
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
		wasLaunched := s.launched
		s.verified, s.launched = false, false
		if !wasLaunched {
			// Torn down before, so killed then; a cheap-policy attempt, the
			// only kind verified unlaunched, holds no checkpoints.
			continue
		}
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
