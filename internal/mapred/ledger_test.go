package mapred

import (
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
)

// checkLedgerInvariant pins the tentpole claim: every CPU microsecond
// the engine charged sits in exactly one ledger bucket once the run has
// drained, so in-flight residue is zero.
func checkLedgerInvariant(t *testing.T, e *Engine) CostBuckets {
	t.Helper()
	b := e.Ledger.Buckets()
	if got, want := b.TotalUs(), e.Metrics.CPUTimeUs; got != want {
		t.Errorf("ledger buckets sum to %dus, engine charged %dus (in_flight=%d)",
			got, want, want-got)
	}
	return b
}

// TestLedgerPlainRunAllCommitted: an honest unreplicated run has no
// verification, no waste, no recovery — the whole spend is committed.
func TestLedgerPlainRunAllCommitted(t *testing.T) {
	tr := run(t, followerSrc, map[string][]string{"in/edges": edges()}, CompileOptions{NumReduces: 2}, nil)
	b := checkLedgerInvariant(t, tr.eng)
	if b.CommittedUs == 0 || b.CommittedUs != tr.eng.Metrics.CPUTimeUs {
		t.Errorf("plain run: committed=%d, want the full %dus", b.CommittedUs, tr.eng.Metrics.CPUTimeUs)
	}
	if b.ReplicaWasteUs != 0 || b.VerifyUs() != 0 || b.RecoveryRerunUs != 0 {
		t.Errorf("plain run charged non-committed buckets: %+v", b)
	}
}

// TestLedgerSpeculationWaste: a hung attempt rescued by a speculative
// backup is charged CPU that never served anyone — it must land in
// replica_waste, and the sum invariant must survive the rescue.
func TestLedgerSpeculationWaste(t *testing.T) {
	eng, jobs := specFixture(t, 6, 2, true)
	if err := eng.Cluster.SetAdversary("node-001", cluster.FaultOmission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	js, err := eng.Submit(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if eng.Metrics.TasksHung == 0 {
		t.Skip("omission node got no tasks in this layout")
	}
	if !js.Done {
		t.Fatal("speculation failed to rescue the job")
	}
	b := checkLedgerInvariant(t, eng)
	if b.ReplicaWasteUs == 0 {
		t.Error("hung attempts charged no replica_waste")
	}
	if b.CommittedUs == 0 {
		t.Error("rescued run committed nothing")
	}
}

// TestLedgerRoutingVerified unit-tests disposition routing: after a
// verdict, the winner's committed work is real output, the losers'
// committed work is verification redundancy, lost work is waste, and
// quiz CPU lands in the mode's verify bucket.
func TestLedgerRoutingVerified(t *testing.T) {
	l := NewCostLedger()
	l.Launch("s1", CostModeQuiz)
	l.ResolveCommitted("s1", 0, 100)
	l.ResolveCommitted("s1", 1, 80)
	l.ResolveLost("s1", 1, 30)
	l.Quiz("s1", 25)

	// Live sid: committed work provisionally counts as committed.
	if b, ok := l.SIDBuckets("s1"); !ok || b.CommittedUs != 180 || b.ReplicaWasteUs != 30 || b.VerifyQuizUs != 25 {
		t.Errorf("live routing = %+v (ok=%v)", b, ok)
	}

	l.Verified("s1", 0)
	b, ok := l.SIDBuckets("s1")
	if !ok {
		t.Fatal("verified sid vanished")
	}
	want := CostBuckets{CommittedUs: 100, ReplicaWasteUs: 30, VerifyQuizUs: 80 + 25}
	if b != want {
		t.Errorf("verified routing = %+v, want %+v", b, want)
	}
	if got := l.TotalUs(); got != 235 {
		t.Errorf("TotalUs = %d, want 235", got)
	}
}

// TestLedgerRoutingSuperseded: a superseded attempt group's entire spend
// — committed, lost, and quiz alike — is recovery re-run cost.
func TestLedgerRoutingSuperseded(t *testing.T) {
	l := NewCostLedger()
	l.Launch("s1", CostModeFull)
	l.ResolveCommitted("s1", 0, 100)
	l.ResolveLost("s1", 2, 40)
	l.Quiz("s1", 10)
	l.Supersede("s1")
	b, _ := l.SIDBuckets("s1")
	if b != (CostBuckets{RecoveryRerunUs: 150}) {
		t.Errorf("superseded routing = %+v, want all 150us in recovery_rerun", b)
	}
}

// TestLedgerFold: folding settles a sid's attribution into the
// cumulative buckets and drops its state, and a sid still live when
// folded (end-of-run teardown of failed work) counts as superseded. No
// charge follows a fold: the engine resolves every attempt before
// ForgetSID (TestTeardownSettlesBeforeCompletion).
func TestLedgerFold(t *testing.T) {
	l := NewCostLedger()
	l.Launch("s1", CostModeFull)
	l.ResolveCommitted("s1", 0, 50)
	l.Supersede("s1")
	l.Fold("s1")
	if _, ok := l.SIDBuckets("s1"); ok {
		t.Error("folded sid still resolvable via SIDBuckets")
	}
	if b := l.Buckets(); b.RecoveryRerunUs != 50 || b.TotalUs() != 50 {
		t.Errorf("settled = %+v, want 50us recovery_rerun", b)
	}

	l.Launch("s3", CostModeQuiz)
	l.ResolveCommitted("s3", 0, 9)
	l.Fold("s3")
	if b := l.Buckets(); b.RecoveryRerunUs != 50+9 {
		t.Errorf("live fold = %+v, want live spend in recovery_rerun", b)
	}
	if n := l.Sizes(); n != 0 {
		t.Errorf("ledger holds %d sids after folding both", n)
	}
}

// TestTeardownSettlesBeforeCompletion: a teardown resolves the CPU of the
// attempts it ends at once, while their completion events are still
// pending, so the buckets sum to the engine's charge before the queue
// drains, and a completion that fires after the sid folded brings
// nothing back.
func TestTeardownSettlesBeforeCompletion(t *testing.T) {
	for _, tc := range []struct {
		name     string
		teardown func(e *Engine, spec *JobSpec)
	}{
		{"kill", func(e *Engine, spec *JobSpec) {
			e.KillJob(spec.ID)
			e.ForgetSID(spec.SID)
		}},
		{"crash", func(e *Engine, spec *JobSpec) {
			e.CrashNode("node-000")
			e.After(10_000_000, func() { e.RejoinNode("node-000") })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.NewWith(dfs.Options{})
			fs.Append("in/edges", crashInput(25_000)...)
			jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
			if err != nil {
				t.Fatal(err)
			}
			spec := jobs[0]
			spec.SID = "sid-teardown"
			// One node: the crash takes every attempt there is.
			eng := NewEngine(fs, cluster.New(1, 4), nil, DefaultCostModel())
			eng.Ledger.Launch(spec.SID, CostModeFull)
			js, err := eng.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			eng.After(eng.Cost.HeartbeatUs+1, func() {
				var charged int64
				live := 0
				for _, tk := range js.tasks {
					for _, rt := range tk.running {
						if rt.start+rt.dur <= eng.Now() {
							t.Fatalf("%s completes at %d, not after %d", tk.ID(), rt.start+rt.dur, eng.Now())
						}
						charged += rt.dur
						live++
					}
				}
				if live == 0 || charged != eng.Metrics.CPUTimeUs {
					t.Fatalf("%d live attempts charged %dus, engine charged %dus", live, charged, eng.Metrics.CPUTimeUs)
				}
				tc.teardown(eng, spec)
				b := eng.Ledger.Buckets()
				if got, want := b.TotalUs(), eng.Metrics.CPUTimeUs; got != want {
					t.Errorf("after %s, before the completions: buckets sum to %dus, engine charged %dus", tc.name, got, want)
				}
				if lost := b.ReplicaWasteUs + b.RecoveryRerunUs; lost != charged {
					t.Errorf("after %s: %dus lost, want the %dus its attempts were charged", tc.name, lost, charged)
				}
			})
			eng.Run()
			checkLedgerInvariant(t, eng)
			if tc.name == "kill" {
				if n := eng.Ledger.Sizes(); n != 0 {
					t.Errorf("a completion after the fold brought %d sids back", n)
				}
			} else if !js.Done {
				t.Error("job did not finish after the rejoin")
			}
		})
	}
}
