package core

import (
	"fmt"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// checkLedger pins the cost-attribution invariant at quiesce: the four
// ledger buckets partition Metrics.CPUTimeUs exactly, so the in-flight
// residue is zero once the controller has drained.
func checkLedger(t *testing.T, h *harness, label string) mapred.CostBuckets {
	t.Helper()
	b := h.Engine.Ledger.Buckets()
	if got, want := b.TotalUs(), h.Engine.Metrics.CPUTimeUs; got != want {
		t.Errorf("%s: ledger buckets sum to %dus, engine charged %dus (in_flight=%d)",
			label, got, want, want-got)
	}
	return b
}

// TestCostLedgerFaultFree: on an honest cluster every policy's spend
// decomposes into committed work plus that policy's verification bucket
// — nothing is superseded, so recovery_rerun stays zero, and the quiz
// modes pay their redundancy as quiz CPU while full-r pays it as the
// r-1 non-winner replicas.
func TestCostLedgerFaultFree(t *testing.T) {
	for _, p := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz, verify.PolicyDeferred, verify.PolicyAuto} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		h := newHarness(t, 16, 3, cfg)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("policy %v: not verified", p)
		}
		b := checkLedger(t, h, p.String())
		if b.CommittedUs == 0 {
			t.Errorf("policy %v: no committed CPU", p)
		}
		if b.RecoveryRerunUs != 0 {
			t.Errorf("policy %v: fault-free run charged %dus recovery_rerun", p, b.RecoveryRerunUs)
		}
		switch p {
		case verify.PolicyFull:
			if b.VerifyFullUs == 0 {
				t.Errorf("full-r charged no verify_full (non-winner replicas)")
			}
			if b.VerifyQuizUs != 0 || b.VerifyDeferredUs != 0 {
				t.Errorf("full-r charged quiz buckets: %+v", b)
			}
		case verify.PolicyQuiz:
			if b.VerifyQuizUs == 0 {
				t.Errorf("quiz policy charged no verify_quiz")
			}
		case verify.PolicyDeferred, verify.PolicyAuto: // auto resolves to deferred on a clean history
			if b.VerifyDeferredUs == 0 {
				t.Errorf("policy %v charged no verify_deferred", p)
			}
		}
		// The ledger's committed+waste view must agree with the engine's
		// pinned committed/lost split: lost CPU is exactly waste plus the
		// lost share of superseded attempts (zero here).
		if b.VerifyUs()*2 > b.TotalUs() && p != verify.PolicyFull {
			t.Errorf("policy %v: verification overhead %dus dominates total %dus", p, b.VerifyUs(), b.TotalUs())
		}
	}
}

// TestCostLedgerUnderCommission: with replica-0 map tasks corrupted, the
// cheap policies escalate (superseded attempts land in recovery_rerun)
// and full-r outvotes the liar in place (its committed work becomes
// verification redundancy). The sum invariant holds either way.
func TestCostLedgerUnderCommission(t *testing.T) {
	for _, p := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz, verify.PolicyDeferred} {
		cfg := DefaultConfig()
		cfg.VerifyPolicy = p
		cfg.QuizFraction = 1
		h := commissionHarness(t, cfg)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("policy %v: not verified", p)
		}
		b := checkLedger(t, h, p.String())
		switch p {
		case verify.PolicyFull:
			// The corrupted replica commits but never wins: its spend is
			// full-r verification redundancy, not committed output.
			if b.VerifyFullUs == 0 {
				t.Errorf("full-r: corrupt replica's CPU not in verify_full: %+v", b)
			}
		default:
			// Quiz catches the liar and the attempt is escalated:
			// everything the superseded attempt spent — its tasks AND the
			// quizzes that exposed it — is recovery re-run cost, and the
			// replacement full-r attempt pays verify_full redundancy.
			if b.RecoveryRerunUs == 0 {
				t.Errorf("policy %v: escalation charged no recovery_rerun: %+v", p, b)
			}
			if b.VerifyFullUs == 0 {
				t.Errorf("policy %v: escalated full-r attempt charged no verify_full: %+v", p, b)
			}
			if h.Engine.QuizTasks == 0 {
				t.Errorf("policy %v: no quiz tasks ran", p)
			}
		}
	}
}

// TestCostLedgerAcrossRuns: one controller serving several Runs (with a
// faulty middle run) keeps the invariant as folded sids accumulate into
// the settled buckets — the ledger is cumulative, like CPUTimeUs.
func TestCostLedgerAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VerifyPolicy = verify.PolicyQuiz
	cfg.QuizFraction = 1
	h := commissionHarness(t, cfg)
	hook := h.Engine.TaskHook
	for run := 0; run < 3; run++ {
		if run == 1 {
			h.Engine.TaskHook = hook
		} else {
			h.Engine.TaskHook = nil
		}
		if _, err := h.Ctrl.Run(weatherScript); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		checkLedger(t, h, "after run")
	}
	if b := h.Engine.Ledger.Buckets(); b.RecoveryRerunUs == 0 {
		t.Error("faulty middle run left no recovery_rerun spend")
	}
}

// TestCostLedgerNoLeakAcrossRuns: a controller reused for many
// sequential scripts must not accrete ledger state. Every run folds its
// sids at teardown, and no charge arrives after a fold, so the ledger
// must hold no sid after every run, including runs that exercised the
// retry path (superseded attempt groups, whose torn-down attempts could
// otherwise bring a folded sid back). The buckets-sum invariant (I6)
// must also keep holding as charges accumulate across runs.
func TestCostLedgerNoLeakAcrossRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 2
	cfg.TimeoutUs = 60_000_000
	h := newHarness(t, 6, 2, cfg)
	// Omission nodes force verifier-timeout retries, producing superseded
	// sids whose torn-down attempts must resolve before their fold.
	for i, n := range []cluster.NodeID{"node-000", "node-001"} {
		if err := h.Cluster.SetAdversary(n, cluster.FaultOmission, 0.9, int64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	retried := false
	for run := 0; run < 3; run++ {
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !res.Verified {
			t.Fatalf("run %d: not verified", run)
		}
		if res.Attempts > res.Clusters {
			retried = true
		}
		if live := h.Engine.Ledger.Sizes(); live != 0 {
			t.Fatalf("run %d: ledger retains %d sids after teardown", run, live)
		}
		checkLedger(t, h, fmt.Sprintf("run %d", run))
	}
	if !retried {
		t.Error("scenario lost its shape: no run exercised the retry path")
	}
}
