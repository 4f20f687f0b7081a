package chaos

import (
	"testing"

	"clusterbft/internal/verify"
)

// TestChaosCampaignPolicies reruns the fault-injection campaign with the
// controllers under quiz and deferred verification: every invariant must
// still hold — in particular I4, so every commission fault the cheap
// policies detect (quiz mismatch, storage-boundary audit, escalated
// full-r agreement) is attributed to an injected fault — and the report
// must stay a pure function of the seeds.
func TestChaosCampaignPolicies(t *testing.T) {
	for _, p := range []verify.Policy{verify.PolicyQuiz, verify.PolicyDeferred} {
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultCampaign()
			cfg.Schedules = 60
			if testing.Short() {
				cfg.Schedules = 20
			}
			cfg.Core.VerifyPolicy = p
			// Sample every task so a corrupted primary is always quizzed.
			cfg.Core.QuizFraction = 1
			rep, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations() {
				t.Errorf("invariant violation: %s", v)
			}

			// The cheap policy must still exercise detection and recovery:
			// schedules with faults escalate, and runs end verified.
			var recovered, verified int
			for _, sr := range rep.Results {
				recovered += sr.Recoveries["escalate"] + sr.Recoveries["retry"] + sr.Recoveries["restart"]
				if sr.Verified {
					verified++
				}
			}
			if recovered == 0 {
				t.Error("no schedule escalated or retried under the cheap policy")
			}
			if verified == 0 {
				t.Error("no schedule recovered to verified")
			}

			again, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Render() != again.Render() {
				t.Fatal("policy campaign is not deterministic")
			}
		})
	}
}
