package core

import (
	"crypto/sha256"
	"strings"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
)

// runPolicy executes weatherScript on a fresh honest harness under one
// verification policy and returns the result plus the harness.
func runPolicy(t *testing.T, p Policy) (*harness, *Result) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.VerifyPolicy = p
	h := newHarness(t, 16, 3, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatalf("policy %v: %v", p, err)
	}
	if !res.Verified {
		t.Fatalf("policy %v: run not verified", p)
	}
	return h, res
}

// TestPolicyFaultFreeEquivalence pins the tentpole's two fault-free
// claims: every policy produces byte-identical verified STORE output,
// and quiz/deferred spend at least 2x less compute than full-r.
func TestPolicyFaultFreeEquivalence(t *testing.T) {
	hFull, resFull := runPolicy(t, PolicyFull)
	want := strings.Join(hFull.outputLines(t, resFull, "out/counts"), "|")
	fullCPU := resFull.Metrics.CPUTimeUs
	if hFull.Engine.QuizTasks != 0 {
		t.Errorf("full-r ran %d quizzes; wanted none", hFull.Engine.QuizTasks)
	}

	for _, p := range []Policy{PolicyQuiz, PolicyDeferred} {
		h, res := runPolicy(t, p)
		if got := strings.Join(h.outputLines(t, res, "out/counts"), "|"); got != want {
			t.Errorf("policy %v output differs from full-r:\n%s\nvs\n%s", p, got, want)
		}
		if h.Engine.QuizTasks == 0 {
			t.Errorf("policy %v ran no quiz tasks", p)
		}
		if cpu := res.Metrics.CPUTimeUs; cpu*2 > fullCPU {
			t.Errorf("policy %v CPU %d not >= 2x cheaper than full-r %d", p, cpu, fullCPU)
		}
		if res.FaultyReplicas != 0 || len(res.Suspects) != 0 {
			t.Errorf("policy %v flagged faults on an honest cluster: %+v", p, res)
		}
	}
}

// commissionHarness builds a cluster whose replica-0 map tasks are all
// corrupted via the engine's TaskHook. Unlike a node-level adversary,
// this guarantees the primary of a quiz/deferred attempt (always replica
// 0) computes wrongly regardless of task placement — and keeps doing so
// on escalated attempts, where full replication must outvote it.
func commissionHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := newHarness(t, 4, 3, cfg)
	h.Engine.TaskHook = func(_ cluster.NodeID, tk *mapred.Task) mapred.TaskFault {
		if tk.Kind == mapred.MapTask && tk.Job.Spec.Replica == 0 {
			return mapred.TaskFault{Corrupt: cluster.Corrupt}
		}
		return mapred.TaskFault{}
	}
	return h
}

// TestQuizDetectsCommission: under PolicyQuiz a commission-faulty primary
// is caught by trusted re-execution, escalated to full replication, and
// the run still ends verified with honest output.
func TestQuizDetectsCommission(t *testing.T) {
	for _, p := range []Policy{PolicyQuiz, PolicyDeferred} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		h := commissionHarness(t, cfg)
		trail := analyze.NewAuditTrail(h.Engine.Now)
		h.Ctrl.AttachAudit(trail)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		var escalations, retries int
		for _, ev := range trail.Events() {
			switch ev.Kind {
			case analyze.AuditEscalate:
				escalations++
			case analyze.AuditRetry, analyze.AuditRestart:
				retries++
			}
		}
		if !res.Verified {
			t.Fatalf("policy %v: run not verified after escalation", p)
		}
		if escalations == 0 {
			t.Errorf("policy %v: commission fault never escalated", p)
		}
		if retries == 0 {
			t.Errorf("policy %v: escalation did not re-initiate the sub-graph", p)
		}
		if res.FaultyReplicas == 0 {
			t.Errorf("policy %v: no replica marked faulty", p)
		}

		// The verified output must equal an honest full-r run's.
		hHonest, resHonest := runPolicy(t, PolicyFull)
		want := strings.Join(hHonest.outputLines(t, resHonest, "out/counts"), "|")
		if got := strings.Join(h.outputLines(t, res, "out/counts"), "|"); got != want {
			t.Errorf("policy %v verified corrupt output:\n%s\nvs\n%s", p, got, want)
		}
	}
}

// TestAutoPolicySelection pins decidePolicy's mapping from suspicion
// history to policy: clean -> deferred, Low -> quiz, Med/High -> full.
func TestAutoPolicySelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VerifyPolicy = PolicyAuto
	h := newHarness(t, 4, 2, cfg)
	if got := h.Ctrl.decidePolicy(); got != PolicyDeferred {
		t.Errorf("clean history: got %v, want deferred", got)
	}
	// One fault over four jobs: s = 0.25 -> Low -> quiz.
	nodes := []cluster.NodeID{"node-000"}
	for i := 0; i < 4; i++ {
		h.Ctrl.Susp.RecordJob(nodes)
	}
	h.Ctrl.Susp.RecordFault(nodes)
	if got := h.Ctrl.decidePolicy(); got != PolicyQuiz {
		t.Errorf("low suspicion: got %v, want quiz", got)
	}
	// Two faults over four jobs: s = 0.5 -> Med -> full.
	h.Ctrl.Susp.RecordFault(nodes)
	if got := h.Ctrl.decidePolicy(); got != PolicyFull {
		t.Errorf("medium suspicion: got %v, want full", got)
	}

	// End to end: a clean auto run picks the cheap path for every
	// sub-graph and stays byte-identical with full-r.
	hAuto, resAuto := runPolicy(t, PolicyAuto)
	for _, cs := range hAuto.Ctrl.clusters {
		if cs.policy != PolicyDeferred {
			t.Errorf("auto on clean history resolved c%d to %v, want deferred", cs.id, cs.policy)
		}
	}
	hFull, resFull := runPolicy(t, PolicyFull)
	want := strings.Join(hFull.outputLines(t, resFull, "out/counts"), "|")
	if got := strings.Join(hAuto.outputLines(t, resAuto, "out/counts"), "|"); got != want {
		t.Errorf("auto output differs from full-r")
	}
}

// TestChoosePointsUnknownAlias: a forced verification point naming no
// relation must fail the run loudly, naming the alias, instead of
// silently verifying less than the client asked for.
func TestChoosePointsUnknownAlias(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ForcePointAliases = []string{"avgs", "nosuchrelation"}
	h := newHarness(t, 4, 2, cfg)
	_, err := h.Ctrl.Run(weatherScript)
	if err == nil {
		t.Fatal("unknown forced alias must error")
	}
	if !strings.Contains(err.Error(), "nosuchrelation") {
		t.Errorf("error does not name the bad alias: %v", err)
	}
}

// TestStaleDigestDropped is the satellite-2 regression: a digest report
// from a superseded attempt (a straggler racing its cancellation after a
// retry) must be dropped before it touches the matcher, not stored and
// counted.
func TestStaleDigestDropped(t *testing.T) {
	h := newHarness(t, 4, 2, DefaultConfig())
	c := h.Ctrl
	cs := &clusterState{sid: "run1-c0-a1"} // already retried once
	c.sidIndex = map[string]*clusterState{
		"run1-c0-a0": cs, // stale sid still indexed until verification
		"run1-c0-a1": cs,
	}
	c.onDigest(digest.Report{Key: digest.Key{SID: "run1-c0-a0", Point: 1, Task: "m0-000"}})
	if c.reports != 0 {
		t.Errorf("stale report counted: reports=%d", c.reports)
	}
	if n := c.matcher.SIDs(); n != 0 {
		t.Errorf("stale report stored in matcher: %d sids", n)
	}
	// A report for the live attempt still lands.
	c.onDigest(digest.Report{Key: digest.Key{SID: "run1-c0-a1", Point: 1, Task: "m0-000"}})
	if c.reports != 1 || c.matcher.SIDs() != 1 {
		t.Errorf("live report dropped: reports=%d sids=%d", c.reports, c.matcher.SIDs())
	}
}

// TestControllerLifecycleBounded is the satellite-1/3/5 regression: one
// controller serving a stream of Runs — with faults in the middle run —
// must not accumulate matcher digests, scheduler affinity, or engine job
// records, while suspicion state (the part that is *supposed* to
// persist) carries across.
func TestControllerLifecycleBounded(t *testing.T) {
	for _, p := range []Policy{PolicyFull, PolicyQuiz, PolicyDeferred} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		h := newHarness(t, 4, 3, cfg)
		sched := h.Engine.Sched.(*OverlapScheduler)
		// Record every report the verifier is handed, to probe the matcher
		// for leftovers of exactly those votes after teardown.
		var filed []digest.Report
		sink := h.Engine.DigestSink
		h.Engine.DigestSink = func(r digest.Report) {
			filed = append(filed, r)
			sink(r)
		}
		scripts := []string{weatherScript, weatherScript, weatherScript}
		for run, script := range scripts {
			if run == 1 {
				// Middle run: every replica-0 map task computes wrongly.
				h.Engine.TaskHook = func(_ cluster.NodeID, tk *mapred.Task) mapred.TaskFault {
					if tk.Kind == mapred.MapTask && tk.Job.Spec.Replica == 0 {
						return mapred.TaskFault{Corrupt: cluster.Corrupt}
					}
					return mapred.TaskFault{}
				}
			} else {
				h.Engine.TaskHook = nil
			}
			res, err := h.Ctrl.Run(script)
			if err != nil {
				t.Fatalf("policy %v run %d: %v", p, run, err)
			}
			if !res.Verified {
				t.Fatalf("policy %v run %d not verified", p, run)
			}
			if n := h.Ctrl.matcher.SIDs(); n != 0 {
				t.Errorf("policy %v run %d: matcher retains %d sids after teardown", p, run, n)
			}
			// Forget drops the vote tally, the per-key state and the
			// memoised fingerprints together: no filed vote answers.
			if len(filed) == 0 {
				t.Fatalf("policy %v run %d: no digest reports observed", p, run)
			}
			for _, r := range filed {
				sid := r.Key.SID
				if _, ok := h.Ctrl.matcher.Lookup(sid, r.Replica, r.Key); ok {
					t.Fatalf("policy %v run %d: vote %v of replica %d survived teardown", p, run, r.Key, r.Replica)
				}
				if _, _, ok := h.Ctrl.matcher.KeyAgreement(sid, r.Key); ok {
					t.Fatalf("policy %v run %d: tally of %v survived teardown", p, run, r.Key)
				}
				if h.Ctrl.matcher.Fingerprint(sid, r.Replica) != sha256.Sum256(nil) {
					t.Fatalf("policy %v run %d: fingerprint of %s/r%d survived teardown", p, run, sid, r.Replica)
				}
			}
			filed = filed[:0]
			if n := sched.HostedSIDs(); n != 0 {
				t.Errorf("policy %v run %d: scheduler retains %d sid affinities", p, run, n)
			}
			if n := h.Engine.JobCount(); n != 0 {
				t.Errorf("policy %v run %d: engine retains %d jobs", p, run, n)
			}
			if n := len(h.Ctrl.sidIndex); n != 0 {
				t.Errorf("policy %v run %d: sidIndex retains %d entries", p, run, n)
			}
			if free, total := h.Engine.FreeSlotsTotal(), h.Cluster.TotalSlots(); free != total {
				t.Errorf("policy %v run %d: slots leaked: free=%d total=%d", p, run, free, total)
			}
			if run >= 1 && len(h.Ctrl.Susp.Suspects()) == 0 {
				t.Errorf("policy %v run %d: suspicion did not carry across runs", p, run)
			}
		}
	}
}

// TestSchedulerForgetSID unit-tests the satellite-3 prune: dropping a sid
// removes it from every node's hosted set and empty per-node sets are
// reclaimed entirely.
func TestSchedulerForgetSID(t *testing.T) {
	s := NewOverlapScheduler(nil)
	s.sids = map[cluster.NodeID]map[string]bool{
		"node-000": {"a": true, "b": true},
		"node-001": {"a": true},
	}
	if got := s.HostedSIDs(); got != 3 {
		t.Fatalf("HostedSIDs = %d, want 3", got)
	}
	s.ForgetSID("a")
	if got := s.HostedSIDs(); got != 1 {
		t.Errorf("after forget a: HostedSIDs = %d, want 1", got)
	}
	if _, ok := s.sids["node-001"]; ok {
		t.Error("empty per-node set not reclaimed")
	}
	s.ForgetSID("b")
	if len(s.sids) != 0 {
		t.Errorf("scheduler state not empty: %v", s.sids)
	}
}
