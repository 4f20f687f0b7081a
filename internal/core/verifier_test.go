package core

import (
	"slices"
	"testing"

	"clusterbft/internal/digest"
)

// TestVerifierApplyAllocs pins the verifier's steady state at no
// allocation: a repeated vote on a known key that decides nothing, and a
// timeout for an attempt that already verified.
func TestVerifierApplyAllocs(t *testing.T) {
	const sid = "run1-c0-a0"
	cfg := DefaultConfig()
	v := newVerifier(cfg, NewSuspicionTable(0), NewFaultAnalyzer(cfg.F), nil)
	v.reset(1, []verdict{{tmpls: []tmpl{{id: "j00"}}}})
	v.apply(event{kind: evStart})
	if len(v.out) != 1 || v.out[0].kind != dLaunch || v.out[0].plan.sid != sid || v.out[0].plan.r != 4 {
		t.Fatalf("the run's start decided %+v, want one full-r launch of %s", v.out, sid)
	}
	v.out = v.out[:0]
	vote := func(rep int) event {
		return event{kind: evDigest, sid: sid, report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: "m0-000"}, Replica: rep, Sum: digest.Sum{1}}}
	}
	for rep := range 4 {
		v.apply(vote(rep))
	}
	again := vote(2)
	if n := testing.AllocsPerRun(100, func() { v.apply(again) }); n != 0 || len(v.out) != 0 {
		t.Errorf("a repeated vote allocates %v times and decides %v, want 0 and nothing", n, v.out)
	}

	// Two replicas complete with equal vectors: f+1 agreement verifies.
	v.apply(event{kind: evJobDone, sid: sid, replica: 0, job: "j00"})
	v.apply(event{kind: evJobDone, sid: sid, replica: 1, job: "j00"})
	if !v.subs[0].verified {
		t.Fatalf("no verdict after f+1 agreeing completions: %+v", v.out)
	}
	v.out = v.out[:0]
	timeout := event{kind: evTimeout, sid: sid}
	if n := testing.AllocsPerRun(100, func() { v.apply(timeout) }); n != 0 || len(v.out) != 0 {
		t.Errorf("a settled attempt's timeout allocates %v times and decides %v, want 0 and nothing", n, v.out)
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
	cfg := DefaultConfig()
	cfg.R = 1
	cfg.VerifyPolicy = PolicyDeferred
	v := newVerifier(cfg, NewSuspicionTable(0), NewFaultAnalyzer(cfg.F), nil)
	v.reset(1, []verdict{
		{id: 0, tmpls: []tmpl{{id: "j00"}}},
		{id: 1, upstream: []int{0}, tmpls: []tmpl{{id: "j01"}}},
	})
	v.subs[1].policy = PolicyQuiz
	report := func(sid string, rep int, task string, sum byte) {
		v.apply(event{kind: evDigest, sid: sid, report: digest.Report{
			Key: digest.Key{SID: sid, Point: 1, Task: task}, Replica: rep, Sum: digest.Sum{sum}}})
	}
	launched := func(sub int) bool {
		return slices.ContainsFunc(v.out, func(d decision) bool { return d.kind == dLaunch && d.sub == sub })
	}

	v.apply(event{kind: evStart})
	report(up, 0, "m0-000", 1)
	v.apply(event{kind: evJobDone, sid: up, replica: 0, job: "j00", tasks: []string{"m0-000"}})
	if !v.subs[0].verified || !launched(1) || v.subs[1].sid != down {
		t.Fatalf("deferred c0 did not verify and launch c1 as %s: %+v", down, v.out)
	}
	report(down, 0, "m0-000", 2)
	v.apply(event{kind: evJobDone, sid: down, replica: 0, job: "j01", tasks: []string{"m0-000"}})
	report(down, quizReplica, "m0-000", 2) // c1's quiz agrees

	// c0's quiz disagrees: c0 escalates, and the cascade tears c1 down.
	report(up, quizReplica, "m0-000", 9)
	v.out = v.out[:0]
	v.apply(event{kind: evQuiz, sid: up})
	if s := &v.subs[1]; s.launched || s.verified || s.sid != down {
		t.Fatalf("c1 after the cascade: launched=%v verified=%v sid=%s, want torn down under %s",
			s.launched, s.verified, s.sid, down)
	}
	if launched(1) {
		t.Fatalf("c1 relaunched before c0 verified: %+v", v.out)
	}

	v.out = v.out[:0]
	if v.apply(event{kind: evQuiz, sid: down}) || len(v.out) != 0 {
		t.Fatalf("the torn-down attempt's quiz completion was live and decided %+v", v.out)
	}
	if v.subs[1].verified {
		t.Fatal("the torn-down attempt was verified")
	}
}

// timeOutEachLaunch starts a one-job run on v and times out every
// attempt it launches, until the verifier stops launching, and returns
// the launch plans in order.
func timeOutEachLaunch(v *verifier) []launchPlan {
	var plans []launchPlan
	v.apply(event{kind: evStart})
	for {
		i := slices.IndexFunc(v.out, func(d decision) bool { return d.kind == dLaunch })
		if i < 0 {
			return plans
		}
		plans = append(plans, v.out[i].plan)
		v.out = v.out[:0]
		v.apply(event{kind: evTimeout, sid: plans[len(plans)-1].sid})
	}
}

// TestAttemptBoundIsMaxAttempts: MaxAttempts counts launches. A
// sub-graph whose every attempt times out is launched exactly
// MaxAttempts times, each at one more replica, and then fails.
func TestAttemptBoundIsMaxAttempts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxAttempts = 3
	v := newVerifier(cfg, NewSuspicionTable(0), NewFaultAnalyzer(cfg.F), nil)
	v.reset(1, []verdict{{tmpls: []tmpl{{id: "j00"}}}})
	plans := timeOutEachLaunch(v)
	if len(plans) != cfg.MaxAttempts {
		t.Fatalf("%d launches, want MaxAttempts = %d", len(plans), cfg.MaxAttempts)
	}
	for i, p := range plans {
		if p.totalTries != i+1 || p.r != cfg.R+i {
			t.Errorf("launch %d: try %d at r=%d, want try %d at r=%d", i, p.totalTries, p.r, i+1, cfg.R+i)
		}
	}
	if !v.subs[0].failed || !slices.ContainsFunc(v.out, func(d decision) bool { return d.kind == dFail }) {
		t.Errorf("the exhausted sub-graph did not fail: %+v", v.out)
	}
}

// TestEscalationAtConfiguredDegreeRaisesR: escalating a cheap policy
// raises r to the configured degree, and where the cheap attempt already
// ran at that degree (R = 1) the retry still runs at one more replica,
// as every retry does (§4.2 step 6).
func TestEscalationAtConfiguredDegreeRaisesR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 1
	cfg.MaxAttempts = 2
	v := newVerifier(cfg, NewSuspicionTable(0), NewFaultAnalyzer(cfg.F), nil)
	v.reset(1, []verdict{{tmpls: []tmpl{{id: "j00"}}}})
	v.subs[0].policy = PolicyQuiz
	plans := timeOutEachLaunch(v)
	if len(plans) != 2 {
		t.Fatalf("%d launches, want 2", len(plans))
	}
	if p := plans[0]; p.policy != PolicyQuiz || p.r != 1 {
		t.Fatalf("first launch %v at r=%d, want quiz at r=1", p.policy, p.r)
	}
	if p := plans[1]; p.policy != PolicyFull || p.r != 2 {
		t.Errorf("retry %v at r=%d, want full at r=2", p.policy, p.r)
	}
}

// TestReplicaCapIsInclusive: a sub-graph may run at exactly MaxReplicas
// replicas, the most the matcher tallies; only a retry past it is too
// wide.
func TestReplicaCapIsInclusive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = MaxReplicas - 1
	v := newVerifier(cfg, NewSuspicionTable(0), NewFaultAnalyzer(cfg.F), nil)
	v.reset(1, []verdict{{tmpls: []tmpl{{id: "j00"}}}})
	plans := timeOutEachLaunch(v)
	if len(plans) != 2 || plans[1].r != MaxReplicas {
		t.Fatalf("launched at %+v, want r=%d then r=%d", plans, MaxReplicas-1, MaxReplicas)
	}
	if !slices.ContainsFunc(v.out, func(d decision) bool { return d.kind == dTooWide && d.n == MaxReplicas+1 }) {
		t.Errorf("the retry past MaxReplicas was not refused as too wide: %+v", v.out)
	}
}
