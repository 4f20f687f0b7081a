package chaos

import (
	"testing"

	"clusterbft/internal/verify"
)

// TestChaosLedgerInvariantAllPolicies runs a short campaign under every
// verification policy purely for invariant I6: whatever the schedule
// does — crashes, manglings, omissions, escalations, failed runs — the
// cost ledger's buckets must partition the engine's charged CPU exactly
// once the simulation drains. Violations (I6 among them) surface in the
// report.
func TestChaosLedgerInvariantAllPolicies(t *testing.T) {
	for _, p := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz, verify.PolicyDeferred, verify.PolicyAuto} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultCampaign()
			cfg.Schedules = 25
			if testing.Short() {
				cfg.Schedules = 8
			}
			cfg.Core.VerifyPolicy = p
			if p != verify.PolicyFull {
				cfg.Core.QuizFraction = 1
			}
			rep, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations() {
				t.Errorf("invariant violation: %s", v)
			}
		})
	}
}
