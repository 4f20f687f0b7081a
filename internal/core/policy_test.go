package core

import (
	"strings"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// runPolicy executes weatherScript on a fresh honest harness under one
// verification policy and returns the result plus the harness.
func runPolicy(t *testing.T, p verify.Policy) (*harness, *Result) {
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
	hFull, resFull := runPolicy(t, verify.PolicyFull)
	want := strings.Join(hFull.outputLines(t, resFull, "out/counts"), "|")
	fullCPU := resFull.Metrics.CPUTimeUs
	if hFull.Engine.QuizTasks != 0 {
		t.Errorf("full-r ran %d quizzes; wanted none", hFull.Engine.QuizTasks)
	}

	for _, p := range []verify.Policy{verify.PolicyQuiz, verify.PolicyDeferred} {
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

// TestQuizDetectsCommission: under verify.PolicyQuiz a commission-faulty primary
// is caught by trusted re-execution, escalated to full replication, and
// the run still ends verified with honest output.
func TestQuizDetectsCommission(t *testing.T) {
	for _, p := range []verify.Policy{verify.PolicyQuiz, verify.PolicyDeferred} {
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
		hHonest, resHonest := runPolicy(t, verify.PolicyFull)
		want := strings.Join(hHonest.outputLines(t, resHonest, "out/counts"), "|")
		if got := strings.Join(h.outputLines(t, res, "out/counts"), "|"); got != want {
			t.Errorf("policy %v verified corrupt output:\n%s\nvs\n%s", p, got, want)
		}
	}
}

// TestAutoPolicySelection: a clean auto run picks the cheap path for
// every sub-graph and stays byte-identical with full-r. The mapping from
// suspicion history to policy is verify's TestDecidePolicyFromSuspicion.
func TestAutoPolicySelection(t *testing.T) {
	hAuto, resAuto := runPolicy(t, verify.PolicyAuto)
	for _, s := range hAuto.Ctrl.v.Subs {
		if s.Policy != verify.PolicyDeferred {
			t.Errorf("auto on clean history resolved c%d to %v, want deferred", s.ID, s.Policy)
		}
	}
	hFull, resFull := runPolicy(t, verify.PolicyFull)
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

// TestControllerLifecycleBounded is the satellite-1/3/5 regression: one
// controller serving a stream of Runs — with faults in the middle run —
// must not accumulate matcher digests or engine job records (the
// engine's replica bindings go with them: TestEngineForgetSID), while
// suspicion state (the part that is *supposed* to persist) carries
// across.
func TestControllerLifecycleBounded(t *testing.T) {
	// The last leg runs full-r with both MR jobs in one sub-graph, so its
	// interior job is checkpointed on every run.
	for leg, p := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz, verify.PolicyDeferred, verify.PolicyFull} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		if leg == 3 {
			cfg.Checkpoint = true
			cfg.ForcePointAliases = []string{"counts"}
		}
		h := newHarness(t, 4, 3, cfg)
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
			if n := h.Engine.JobCount(); n != 0 {
				t.Errorf("policy %v run %d: engine retains %d jobs", p, run, n)
			}
			// Teardown swept the verifier: no attempt is left for a second
			// sweep. What a sweep drops (votes, placements, checkpoint
			// signatures, quiz candidates) is verify's TestSweepForgetsTheRun.
			if sids := h.Ctrl.v.Sweep(); len(sids) != 0 {
				t.Errorf("policy %v run %d: the verifier still indexes %v", p, run, sids)
			}
			if free, total := h.Engine.FreeSlotsTotal(), h.Cluster.TotalSlots(); free != total {
				t.Errorf("policy %v run %d: slots leaked: free=%d total=%d", p, run, free, total)
			}
			if run >= 1 && len(h.Ctrl.Susp.Suspects()) == 0 {
				t.Errorf("policy %v run %d: suspicion did not carry across runs", p, run)
			}
		}
		if saves := h.Ctrl.CheckpointStats().Saves; (leg == 3) != (saves > 0) {
			t.Errorf("leg %d: %d checkpoint saves", leg, saves)
		}
	}
}

// TestCrossClusterAuditConflict drives the one audit rule that blames an
// upstream sub-graph: once c0's primary has reported the io-out digest of
// its output, the first line of every part of it is changed through the
// store's own API, before c1 opens the tree, so c1's io-in digest of that
// tree conflicts with the io-out digest c0's primary reported for it. c0's primary is the
// one charged, c0 escalates to full replication, and the restart cascade
// takes c1 down with it. The trail is pinned as it was before the
// verifier became a state machine.
func TestCrossClusterAuditConflict(t *testing.T) {
	want := map[verify.Policy]string{
		verify.PolicyQuiz: `t=0        launch          run1-c0-a0
t=2012080  launch          run1-c1-a0
t=2824090  verify          run1-c0-a0/r0
t=4012224  mismatch        run1-c0-a0/r0 commission [node-001 node-002]
t=4012224  escalate        run1-c0-a0  (downstream sub-graph c1 read data conflicting with the stored-output digest)
t=4012224  restart         run1-c0-a0
t=4012224  restart         run1-c1-a0
t=4012224  launch          run1-c0-a1  (run1-c0-a0)
t=6024304  launch          run1-c1-a1  (run1-c1-a0)
t=6024304  verify          run1-c0-a1/r1
t=8824532  verify          run1-c1-a1/r0
`,
		verify.PolicyDeferred: `t=0        launch          run1-c0-a0
t=2012080  verify          run1-c0-a0/r0
t=2012080  launch          run1-c1-a0
t=4012224  mismatch        run1-c0-a0/r0 commission [node-001 node-002]
t=4012224  escalate        run1-c0-a0  (downstream sub-graph c1 read data conflicting with the stored-output digest)
t=4012224  restart         run1-c0-a0
t=4012224  restart         run1-c1-a0
t=4012224  launch          run1-c0-a1  (run1-c0-a0)
t=6024304  launch          run1-c1-a1  (run1-c1-a0)
t=6024304  verify          run1-c0-a1/r1
t=8024448  verify          run1-c1-a1/r0
`,
	}
	for _, p := range []verify.Policy{verify.PolicyQuiz, verify.PolicyDeferred} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		h := newRig(16, 3)
		h.Assure(cfg)
		done := h.Engine.OnJobDone // which launches c1 once c0's primary is done
		h.Engine.OnJobDone = func(js *mapred.JobState) {
			if strings.HasPrefix(js.Spec.ID, "x/run1-c0-a0/r0/") {
				for _, part := range h.FS.List(js.Spec.Output) {
					lines, err := h.FS.ReadTree(part)
					if err != nil {
						t.Fatal(err)
					}
					if len(lines) > 0 {
						lines[0] += "x"
						if err := h.FS.Delete(part); err != nil {
							t.Fatal(err)
						}
						h.FS.Append(part, lines...)
					}
				}
			}
			done(js)
		}
		trail := analyze.NewAuditTrail(h.Engine.Now)
		h.Ctrl.AttachAudit(trail)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !res.Verified || res.Attempts != 4 {
			t.Errorf("%v: verified=%v after %d attempts, want verified after 4", p, res.Verified, res.Attempts)
		}
		var got strings.Builder
		for _, e := range trail.Events() {
			if e.SID != "" { // the controller's decisions, not the analyzer's
				got.WriteString(e.String() + "\n")
			}
		}
		if got.String() != want[p] {
			t.Errorf("%v trail:\n%s\nwant:\n%s", p, got.String(), want[p])
		}
	}
}
