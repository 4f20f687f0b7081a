package verify

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/digest"
)

// defaults are the verifier's share of core.DefaultConfig, as it reaches
// a verifier built without a controller: no policy (full) and no quiz
// fraction.
func defaults() Params {
	return Params{F: 1, R: 4, MaxAttempts: 6, TimeoutUs: 600_000_000, Offline: true}
}

// newTestVerifier builds a verifier over p and fresh tables, with no
// nodes.
func newTestVerifier(p Params) *Verifier {
	return New(p, NewSuspicionTable(0), NewFaultAnalyzer(p.F), nil)
}

// TestVerifierApplyAllocs pins the verifier's steady state at no
// allocation: a repeated vote on a known key that decides nothing, and a
// timeout for an attempt that already verified.
func TestVerifierApplyAllocs(t *testing.T) {
	const sid = "run1-c0-a0"
	p := defaults()
	v := newTestVerifier(p)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	v.Apply(Event{Kind: EvStart})
	if len(v.Out) != 1 || v.Out[0].Kind != DLaunch || v.Out[0].Plan.SID != sid || v.Out[0].Plan.R != 4 {
		t.Fatalf("the run's start decided %+v, want one full-r launch of %s", v.Out, sid)
	}
	v.Out = v.Out[:0]
	vote := func(rep int) Event {
		return Event{Kind: EvDigest, SID: sid, Report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}, Replica: rep, Sum: digest.Sum{1}}}
	}
	for rep := range 4 {
		v.Apply(vote(rep))
	}
	again := vote(2)
	if n := testing.AllocsPerRun(100, func() { v.Apply(again) }); n != 0 || len(v.Out) != 0 {
		t.Errorf("a repeated vote allocates %v times and decides %v, want 0 and nothing", n, v.Out)
	}

	// Two replicas complete with equal vectors: f+1 agreement verifies.
	v.Apply(Event{Kind: EvJobDone, SID: sid, Replica: 0, Job: "j00"})
	v.Apply(Event{Kind: EvJobDone, SID: sid, Replica: 1, Job: "j00"})
	if !v.Subs[0].Verified {
		t.Fatalf("no verdict after f+1 agreeing completions: %+v", v.Out)
	}
	v.Out = v.Out[:0]
	timeout := Event{Kind: EvTimeout, SID: sid}
	if n := testing.AllocsPerRun(100, func() { v.Apply(timeout) }); n != 0 || len(v.Out) != 0 {
		t.Errorf("a settled attempt's timeout allocates %v times and decides %v, want 0 and nothing", n, v.Out)
	}
}

// TestTornDownAttemptDecidesNothing: an attempt a restart cascade tore
// down keeps its sid until it relaunches, and its quizzes still finish.
// Their completion must decide nothing: c1, a quiz attempt whose job is
// done and whose quiz agrees, is torn down when its deferred upstream c0
// fails a quiz, and c1's late quiz completion must not verify the
// attempt the cascade was started to distrust.
func TestTornDownAttemptDecidesNothing(t *testing.T) {
	const up, down = "run1-c0-a0", "run1-c1-a0"
	p := defaults()
	p.R = 1
	p.Policy = PolicyDeferred
	v := newTestVerifier(p)
	v.Reset(1, []Verdict{
		{ID: 0, Tmpls: []Tmpl{{ID: "j00"}}},
		{ID: 1, Upstream: []int{0}, Tmpls: []Tmpl{{ID: "j01"}}},
	})
	v.Subs[1].Policy = PolicyQuiz
	report := func(sid string, rep int, task string, sum byte) {
		v.Apply(Event{Kind: EvDigest, SID: sid, Report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: task}, Replica: rep, Sum: digest.Sum{sum}}})
	}
	launched := func(sub int) bool {
		return slices.ContainsFunc(v.Out, func(d Decision) bool { return d.Kind == DLaunch && d.Sub == sub })
	}

	v.Apply(Event{Kind: EvStart})
	report(up, 0, "m0-000", 1)
	v.Apply(Event{Kind: EvJobDone, SID: up, Replica: 0, Job: "j00", Tasks: []string{"m0-000"}})
	if !v.Subs[0].Verified || !launched(1) || v.Subs[1].SID != down {
		t.Fatalf("deferred c0 did not verify and launch c1 as %s: %+v", down, v.Out)
	}
	report(down, 0, "m0-000", 2)
	v.Apply(Event{Kind: EvJobDone, SID: down, Replica: 0, Job: "j01", Tasks: []string{"m0-000"}})
	report(down, QuizReplica, "m0-000", 2) // c1's quiz agrees

	// c0's quiz disagrees: c0 escalates, and the cascade tears c1 down.
	report(up, QuizReplica, "m0-000", 9)
	v.Out = v.Out[:0]
	v.Apply(Event{Kind: EvQuiz, SID: up})
	if s := &v.Subs[1]; s.Launched || s.Verified || s.SID != down {
		t.Fatalf("c1 after the cascade: launched=%v verified=%v sid=%s, want torn down under %s",
			s.Launched, s.Verified, s.SID, down)
	}
	if launched(1) {
		t.Fatalf("c1 relaunched before c0 verified: %+v", v.Out)
	}

	v.Out = v.Out[:0]
	if v.Apply(Event{Kind: EvQuiz, SID: down}) || len(v.Out) != 0 {
		t.Fatalf("the torn-down attempt's quiz completion was live and decided %+v", v.Out)
	}
	if v.Subs[1].Verified {
		t.Fatal("the torn-down attempt was verified")
	}
}

// timeOutEachLaunch starts a one-job run on v and times out every
// attempt it launches, until the verifier stops launching, and returns
// the launch plans in order.
func timeOutEachLaunch(v *Verifier) []LaunchPlan {
	var plans []LaunchPlan
	v.Apply(Event{Kind: EvStart})
	for {
		i := slices.IndexFunc(v.Out, func(d Decision) bool { return d.Kind == DLaunch })
		if i < 0 {
			return plans
		}
		plans = append(plans, v.Out[i].Plan)
		v.Out = v.Out[:0]
		v.Apply(Event{Kind: EvTimeout, SID: plans[len(plans)-1].SID})
	}
}

// TestAttemptBoundIsMaxAttempts: MaxAttempts counts launches. A
// sub-graph whose every attempt times out is launched exactly
// MaxAttempts times, each at one more replica, and then fails.
func TestAttemptBoundIsMaxAttempts(t *testing.T) {
	p := defaults()
	p.MaxAttempts = 3
	v := newTestVerifier(p)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	plans := timeOutEachLaunch(v)
	if len(plans) != p.MaxAttempts {
		t.Fatalf("%d launches, want MaxAttempts = %d", len(plans), p.MaxAttempts)
	}
	for i, plan := range plans {
		if plan.TotalTries != i+1 || plan.R != p.R+i {
			t.Errorf("launch %d: try %d at r=%d, want try %d at r=%d", i, plan.TotalTries, plan.R, i+1, p.R+i)
		}
	}
	if !v.Subs[0].Failed || !slices.ContainsFunc(v.Out, func(d Decision) bool { return d.Kind == DFail }) {
		t.Errorf("the exhausted sub-graph did not fail: %+v", v.Out)
	}
}

// TestEscalationAtConfiguredDegreeRaisesR: escalating a cheap policy
// raises r to the configured degree, and where the cheap attempt already
// ran at that degree (R = 1) the retry still runs at one more replica,
// as every retry does (§4.2 step 6).
func TestEscalationAtConfiguredDegreeRaisesR(t *testing.T) {
	p := defaults()
	p.R = 1
	p.MaxAttempts = 2
	v := newTestVerifier(p)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	v.Subs[0].Policy = PolicyQuiz
	plans := timeOutEachLaunch(v)
	if len(plans) != 2 {
		t.Fatalf("%d launches, want 2", len(plans))
	}
	if p := plans[0]; p.Policy != PolicyQuiz || p.R != 1 {
		t.Fatalf("first launch %v at r=%d, want quiz at r=1", p.Policy, p.R)
	}
	if p := plans[1]; p.Policy != PolicyFull || p.R != 2 {
		t.Errorf("retry %v at r=%d, want full at r=2", p.Policy, p.R)
	}
}

// TestReplicaCapIsInclusive: a sub-graph may run at exactly MaxReplicas
// replicas, the most the matcher tallies; only a retry past it is too
// wide.
func TestReplicaCapIsInclusive(t *testing.T) {
	p := defaults()
	p.R = MaxReplicas - 1
	v := newTestVerifier(p)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	plans := timeOutEachLaunch(v)
	if len(plans) != 2 || plans[1].R != MaxReplicas {
		t.Fatalf("launched at %+v, want r=%d then r=%d", plans, MaxReplicas-1, MaxReplicas)
	}
	if !slices.ContainsFunc(v.Out, func(d Decision) bool { return d.Kind == DTooWide && d.N == MaxReplicas+1 }) {
		t.Errorf("the retry past MaxReplicas was not refused as too wide: %+v", v.Out)
	}
}

// TestCheckpointSourceSignature: a checkpoint is only valid for an
// attempt consuming exactly the upstream (sid, replica) pairs recorded
// at save time. A re-verified upstream (same sid, different winner), a
// restarted upstream (new sid), or a changed upstream set all
// invalidate it.
func TestCheckpointSourceSignature(t *testing.T) {
	s := &Verdict{ID: 2}
	s.Sources = map[int]SourceRef{
		0: {SID: "run1-c0-a0", Replica: 1},
		1: {SID: "run1-c1-a1", Replica: 0},
	}
	saved := func() map[int]SourceRef {
		return map[int]SourceRef{
			0: {SID: "run1-c0-a0", Replica: 1},
			1: {SID: "run1-c1-a1", Replica: 0},
		}
	}

	s.ckpts = map[string]map[int]SourceRef{"j01": saved()}
	if !s.ckptValid("j01") {
		t.Fatal("exact source match rejected")
	}

	// Different winner replica of the same upstream attempt: the bytes
	// this attempt reads are another replica's output tree.
	e := saved()
	e[0] = SourceRef{SID: "run1-c0-a0", Replica: 2}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("winner-replica change accepted")
	}

	// Restarted upstream: new attempt sid.
	e = saved()
	e[1] = SourceRef{SID: "run1-c1-a2", Replica: 0}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("upstream sid change accepted")
	}

	// Upstream set shrank or grew between save and relaunch.
	e = saved()
	delete(e, 1)
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("missing upstream accepted")
	}
	e = saved()
	e[3] = SourceRef{SID: "run1-c3-a0", Replica: 0}
	s.ckpts["j01"] = e
	if s.ckptValid("j01") {
		t.Error("extra upstream accepted")
	}

	// No entry at all.
	delete(s.ckpts, "j01")
	if s.ckptValid("j01") {
		t.Error("missing entry accepted")
	}
}

// TestSuffixRetryShedsSuffixEscalations is the regression test for
// suffix-scoped replica sizing: timeout escalations earned while
// re-executing only a checkpointed suffix must not follow the
// checkpointed-prefix jobs into a later full re-execution — those jobs
// re-run at their original degree. Escalations earned by full-graph
// attempts are kept.
func TestSuffixRetryShedsSuffixEscalations(t *testing.T) {
	p := defaults()
	p.R = 3
	p.MaxAttempts = 10
	start := func() (*Verifier, *Verdict) {
		v := newTestVerifier(p)
		v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00", Interior: true}, {ID: "j01", Deps: []string{"j00"}}}}})
		v.Apply(Event{Kind: EvStart})
		return v, &v.Subs[0]
	}
	timeout := func(v *Verifier, s *Verdict) { v.Apply(Event{Kind: EvTimeout, SID: s.SID}) }

	v, s := start()
	if s.R != 3 || s.Skip != nil {
		t.Fatalf("first attempt: r=%d skip=%v", s.R, s.Skip)
	}
	// As if attempt a0 reached f+1 agreement on the interior job before
	// timing out: its checkpoint landed (no upstream, so the source
	// signature is empty and stays valid across attempts).
	v.Apply(Event{Kind: EvCheckpoint, SID: s.SID, Job: "j00"})

	// Full attempt a0 times out: a classic cluster-wide escalation.
	timeout(v, s)
	if s.R != 4 || s.suffixBoost != 0 {
		t.Fatalf("full-graph escalation: r=%d boost=%d, want r=4 boost=0", s.R, s.suffixBoost)
	}
	if !s.Skip["j00"] || s.Run["j00"] || !s.Run["j01"] {
		t.Fatalf("retry did not consume the checkpoint: skip=%v run=%v", s.Skip, s.Run)
	}
	// Two suffix-only attempts time out: escalations scoped to the suffix.
	timeout(v, s)
	timeout(v, s)
	if s.R != 6 || s.suffixBoost != 2 {
		t.Fatalf("suffix escalations: r=%d boost=%d, want r=6 boost=2", s.R, s.suffixBoost)
	}
	// Upstream lineage becomes suspect: checkpoints dropped, the next
	// attempt re-executes the full graph — the checkpointed-prefix jobs
	// come back at the degree they always had (base 3 + the one
	// full-graph escalation), not at the suffix-inflated 7.
	s.ckpts = nil
	timeout(v, s)
	if s.Skip != nil {
		t.Fatal("expected a full re-execution after dropping checkpoints")
	}
	if s.R != 4 || s.suffixBoost != 0 {
		t.Errorf("full re-execution r=%d boost=%d, want r=4 boost=0 (suffix escalations shed)", s.R, s.suffixBoost)
	}

	// Control: the identical sequence without checkpoint coverage keeps
	// the historical cluster-wide escalation.
	v2, s2 := start()
	for i := 0; i < 4; i++ {
		timeout(v2, s2)
	}
	if s2.R != 7 || s2.suffixBoost != 0 {
		t.Errorf("uncovered retries: r=%d boost=%d, want r=7 boost=0", s2.R, s2.suffixBoost)
	}
}

// TestStaleDigestDropped: a digest report from a superseded attempt (a
// straggler racing its cancellation after a retry) must be dropped
// before it touches the matcher, not stored and counted.
func TestStaleDigestDropped(t *testing.T) {
	v := newTestVerifier(defaults())
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	v.Apply(Event{Kind: EvStart})
	v.Apply(Event{Kind: EvTimeout, SID: "run1-c0-a0"})
	if s := &v.Subs[0]; s.SID != "run1-c0-a1" || v.bySID["run1-c0-a0"] != 0 {
		t.Fatalf("the retry runs as %s; the superseded sid must stay indexed until verification: %v", s.SID, v.bySID)
	}
	report := func(sid string) Event {
		return Event{Kind: EvDigest, SID: sid, Report: digest.Report{Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}}}
	}
	if v.Apply(report("run1-c0-a0")) || v.Reports != 0 {
		t.Errorf("stale report counted: reports=%d", v.Reports)
	}
	if n := len(v.matcher.bySID); n != 0 {
		t.Errorf("stale report stored in matcher: %d sids", n)
	}
	// A report for the live attempt still lands.
	if !v.Apply(report("run1-c0-a1")) || v.Reports != 1 || len(v.matcher.bySID) != 1 {
		t.Errorf("live report dropped: reports=%d sids=%d", v.Reports, len(v.matcher.bySID))
	}
}

// TestSweepForgetsTheRun: after Sweep the verifier keeps nothing of the
// run but its verdicts — no indexed attempt, no vote of any attempt
// (live, or superseded and swept on verification), no node placement,
// checkpoint signature or quiz candidate. core's
// TestControllerLifecycleBounded checks that a controller's teardown
// sweeps.
func TestSweepForgetsTheRun(t *testing.T) {
	var filed []digest.Report
	apply := func(v *Verifier, ev Event) {
		if ev.Kind == EvDigest {
			filed = append(filed, ev.Report)
		}
		v.Apply(ev)
	}
	vote := func(v *Verifier, sid string, rep, point int, task string, sum byte) {
		apply(v, Event{Kind: EvDigest, SID: sid, Report: digest.Report{
			Key: digest.Key{SID: sid, Point: point, Task: task}, Replica: rep, Sum: digest.Sum{sum}}})
	}
	// Full replication, r=2: c0's first attempt agrees on its interior
	// job's checkpoint and times out; the retry reads the checkpoint,
	// verifies and sweeps the first attempt; c1 starts on it and is still
	// running when the run ends.
	p := defaults()
	p.R = 2
	full := newTestVerifier(p)
	full.Reset(1, []Verdict{
		{ID: 0, Tmpls: []Tmpl{{ID: "j00", Interior: true}, {ID: "j01", Deps: []string{"j00"}}}},
		{ID: 1, Upstream: []int{0}, Tmpls: []Tmpl{{ID: "j02"}}},
	})
	apply(full, Event{Kind: EvStart})
	for rep := range 2 {
		apply(full, Event{Kind: EvAssigned, SID: "run1-c0-a0", Replica: rep, Job: "j00", Node: "node-000"})
		vote(full, "run1-c0-a0", rep, digest.CkptPoint, "j00", 1)
	}
	apply(full, Event{Kind: EvCheckpoint, SID: "run1-c0-a0", Job: "j00"})
	apply(full, Event{Kind: EvTimeout, SID: "run1-c0-a0"})
	if s := &full.Subs[0]; s.SID != "run1-c0-a1" || !s.Skip["j00"] {
		t.Fatalf("c0's retry is %s skipping %v, want run1-c0-a1 skipping j00", s.SID, s.Skip)
	}
	for rep := range 3 {
		apply(full, Event{Kind: EvAssigned, SID: "run1-c0-a1", Replica: rep, Job: "j01", Node: "node-001"})
		vote(full, "run1-c0-a1", rep, 1, "m0-000", 2)
		apply(full, Event{Kind: EvJobDone, SID: "run1-c0-a1", Replica: rep, Job: "j01"})
	}
	if s := &full.Subs[1]; !full.Subs[0].Verified || s.SID != "run1-c1-a0" {
		t.Fatalf("c0 verified=%v, c1 runs as %q", full.Subs[0].Verified, s.SID)
	}
	apply(full, Event{Kind: EvAssigned, SID: "run1-c1-a0", Replica: 0, Job: "j02", Node: "node-002"})
	vote(full, "run1-c1-a0", 0, 1, "m0-000", 3)

	// A quiz primary whose job finished and whose quiz is still out.
	p.R, p.Policy = 1, PolicyQuiz
	quiz := newTestVerifier(p)
	quiz.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	apply(quiz, Event{Kind: EvStart})
	apply(quiz, Event{Kind: EvAssigned, SID: "run1-c0-a0", Job: "j00", Node: "node-000"})
	vote(quiz, "run1-c0-a0", 0, 1, "m0-000", 4)
	apply(quiz, Event{Kind: EvJobDone, SID: "run1-c0-a0", Job: "j00", Tasks: []string{"m0-000"}})
	if quiz.Subs[0].cands == nil {
		t.Fatal("the quiz primary left no candidates to sweep")
	}

	for name, v := range map[string]*Verifier{"full": full, "quiz": quiz} {
		if sids := v.Sweep(); len(sids) == 0 {
			t.Fatalf("%s: nothing to sweep", name)
		}
		if len(v.bySID) != 0 || len(v.matcher.bySID) != 0 {
			t.Errorf("%s: %d sids indexed and %d in the matcher after the sweep", name, len(v.bySID), len(v.matcher.bySID))
		}
		for _, s := range v.Subs {
			for i, r := range s.Reps {
				if r.placed != nil {
					t.Errorf("%s: c%d/r%d retains %d node placements", name, s.ID, i, len(r.placed))
				}
			}
			if s.ckpts != nil || s.cands != nil {
				t.Errorf("%s: c%d retains %d checkpoint signatures and %d quiz candidate lists", name, s.ID, len(s.ckpts), len(s.cands))
			}
		}
		// Forget drops the vote tally, the per-key state and the memoised
		// fingerprints together: no filed vote answers.
		for _, r := range filed {
			sid := r.Key.SID
			if _, ok := v.matcher.Lookup(sid, r.Replica, r.Key); ok {
				t.Errorf("%s: vote %v of replica %d survived the sweep", name, r.Key, r.Replica)
			}
			if _, _, ok := v.matcher.KeyAgreement(sid, r.Key); ok {
				t.Errorf("%s: tally of %v survived the sweep", name, r.Key)
			}
			if v.matcher.Fingerprint(sid, r.Replica) != sha256.Sum256(nil) {
				t.Errorf("%s: fingerprint of %s/r%d survived the sweep", name, sid, r.Replica)
			}
		}
	}
}

// TestSaturatedChargeBlamesOnlyTheIntersection pins the §6.3 blame rule
// the verifier shares with faultsim (Blame): once the fault analyzer is
// saturated (|D| = f), a faulty job cluster that meets exactly one member
// of D is charged only where it meets it. Here the analyzer narrows to
// node-002, and the suspicion table spares node-003, the bystander the
// decision still names as the replica's job cluster.
func TestSaturatedChargeBlamesOnlyTheIntersection(t *testing.T) {
	p := defaults()
	p.R = 3
	susp, fa := NewSuspicionTable(0), NewFaultAnalyzer(p.F)
	fa.Report(NewNodeSet("node-001", "node-002"))
	if !fa.Saturated() {
		t.Fatal("one disjoint set does not saturate the analyzer at f=1")
	}
	v := New(p, susp, fa, nil)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	v.Apply(Event{Kind: EvStart})
	const sid = "run1-c0-a0"
	for rep, nodes := range [][]cluster.NodeID{{"node-004"}, {"node-005"}, {"node-002", "node-003"}} {
		for _, n := range nodes {
			v.Apply(Event{Kind: EvAssigned, SID: sid, Replica: rep, Job: "j00", Node: n})
		}
	}
	for rep, sum := range []byte{1, 1, 2} {
		v.Apply(Event{Kind: EvDigest, SID: sid, Report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}, Replica: rep, Sum: digest.Sum{sum}}})
	}
	i := slices.IndexFunc(v.Out, func(d Decision) bool { return d.Kind == DFaulty })
	if i < 0 || v.Out[i].Replica != 2 || !slices.Equal(v.Out[i].Nodes, ids("node-002", "node-003")) {
		t.Fatalf("want replica 2 charged on [node-002 node-003]: %+v", v.Out)
	}
	if got := fa.Suspects(); !slices.Equal(got, ids("node-002")) {
		t.Errorf("the analyzer suspects %v, want it narrowed to [node-002]", got)
	}
	if got := susp.Suspects(); !slices.Equal(got, ids("node-002")) {
		t.Errorf("the suspicion table blames %v, want only the intersection [node-002]", got)
	}
}

// TestTableLinesKeepTheirPlace: with a trail attached, every line the
// suspicion table and fault analyzer log is a DLog decision in the place
// it was logged. A commission charge's DFaulty comes first, then the
// analyzer's lines about its job cluster, then the table's score line;
// a completion's score line comes before the verdict it leads to.
func TestTableLinesKeepTheirPlace(t *testing.T) {
	const sid = "run1-c0-a0"
	p := defaults()
	p.R = 3
	susp := NewSuspicionTable(0)
	// node-001 is at one fault in one job (high), so one more job moves it.
	susp.RecordJob(ids("node-001"))
	susp.RecordFault(ids("node-001"))
	v := New(p, susp, NewFaultAnalyzer(p.F), nil)
	v.Attach(true)
	v.Reset(1, []Verdict{{Tmpls: []Tmpl{{ID: "j00"}}}})
	v.Apply(Event{Kind: EvStart})
	for rep, n := range ids("node-002", "node-001", "node-003") {
		v.Apply(Event{Kind: EvAssigned, SID: sid, Replica: rep, Job: "j00", Node: n})
	}
	// stream renders the decisions an event made, a DLog as its line.
	stream := func(ev Event) []string {
		v.Out = v.Out[:0]
		v.Apply(ev)
		var got []string
		for _, d := range v.Out {
			if d.Sub != 0 {
				t.Errorf("%+v is about sub-graph c%d, want c0", d, d.Sub)
			}
			switch d.Kind {
			case DLog:
				got = append(got, fmt.Sprintf("log %s %v", d.Line.Kind, d.Line.Nodes))
			case DFaulty:
				got = append(got, fmt.Sprintf("faulty r%d %v", d.Replica, d.Nodes))
			case DVerified:
				got = append(got, fmt.Sprintf("verified r%d", d.Replica))
			default:
				got = append(got, fmt.Sprintf("kind %d", d.Kind))
			}
		}
		return got
	}
	vote := func(rep int, sum byte) Event {
		return Event{Kind: EvDigest, SID: sid, Report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}, Replica: rep, Sum: digest.Sum{sum}}}
	}
	stream(vote(0, 1))
	stream(vote(1, 1))
	want := []string{
		"faulty r2 [node-003]",
		"log new-suspect-set [node-003]",
		"log conviction [node-003]",
		"log saturated [node-003]",
		"log score [node-003]",
	}
	if got := stream(vote(2, 2)); !slices.Equal(got, want) {
		t.Errorf("the commission charge decided\n%q, want\n%q", got, want)
	}
	if got := stream(Event{Kind: EvJobDone, SID: sid, Replica: 0, Job: "j00"}); len(got) != 0 {
		t.Errorf("the first completion decided %q, want nothing", got)
	}
	want = []string{"log score [node-001]", "verified r0"}
	if got := stream(Event{Kind: EvJobDone, SID: sid, Replica: 1, Job: "j00"}); !slices.Equal(got, want) {
		t.Errorf("the verifying completion decided\n%q, want\n%q", got, want)
	}
}
