package core_test

import (
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/chaos"
	"clusterbft/internal/core"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// TestVerifierReplay drives every schedule of the default chaos campaign
// under each verification policy, and with checkpoint-granular recovery,
// through a tapped controller with an audit trail attached. On every
// schedule the events its verifier received, replayed into a fresh
// verifier over fresh tables, must give the same decision stream, with
// the suspicion-table and fault-analyzer trail lines in their places in
// it, and leave the tables concluding what the run's did: the
// verdicts, the blame and the launch plans are a function of the ordered
// events alone, which is what a replicated control tier needs.
func TestVerifierReplay(t *testing.T) {
	legs := []struct {
		name string
		set  func(*core.Config)
	}{
		{"full", func(*core.Config) {}},
		{"quiz", func(c *core.Config) { c.VerifyPolicy = verify.PolicyQuiz }},
		{"deferred", func(c *core.Config) { c.VerifyPolicy = verify.PolicyDeferred }},
		{"auto", func(c *core.Config) { c.VerifyPolicy = verify.PolicyAuto }},
		{"checkpoint", func(c *core.Config) { c.Checkpoint = true }},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := chaos.DefaultCampaign()
			leg.set(&cfg.Core)
			if cfg.Core.VerifyPolicy != 0 {
				cfg.Core.QuizFraction = 1 // as faultsim's policy legs run
			}
			var events, decisions, lines, failed int
			for i := range cfg.Schedules {
				seed := cfg.BaseSeed + int64(i)
				sys := core.NewSystem(cfg.Nodes, cfg.Slots, cfg.Core.Storage, mapred.DefaultCostModel())
				for path, lines := range cfg.Data {
					sys.FS.Append(path, lines...)
				}
				ctrl := sys.Assure(cfg.Core)
				ctrl.AttachAudit(analyze.NewAuditTrail(sys.Engine.Now))
				log := core.TapVerifier(ctrl)
				chaos.NewInjector(chaos.Generate(seed, cfg)).AttachEngine(sys.Engine)
				// A schedule may exhaust a sub-graph's attempts; the decisions
				// that failed it replay all the same.
				if _, err := sys.Ctrl.Run(cfg.Script); err != nil {
					failed++
				}
				sys.FS.Close()
				n, d, l, err := log.Replay()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				events += n
				decisions += d
				lines += l
			}
			if events == 0 || decisions == 0 || lines == 0 {
				t.Fatalf("nothing replayed: %d events, %d decisions, %d table lines", events, decisions, lines)
			}
			t.Logf("%d schedules (%d failed): %d events, %d decisions, %d table lines replayed", cfg.Schedules, failed, events, decisions, lines)
		})
	}
}
