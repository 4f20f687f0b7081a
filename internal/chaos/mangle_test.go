package chaos

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// TestWorkerMangleIsDetectedAndAttributed runs one hand-built schedule per
// storage kind, under full replication and under quiz verification of
// every task. The mangle acts in workers of the victim replica and is
// detected: the trail holds a mismatch, and every mismatch not caused by a
// timeout is pinned on a replica whose workers mangled. The verified
// output is the clean run's. A write mangle is in what the task sealed:
// each part it tampered with holds the lines its Tamper returned, not the
// ones the task produced.
func TestWorkerMangleIsDetectedAndAttributed(t *testing.T) {
	for _, policy := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz} {
		cfg := DefaultCampaign()
		cfg.Core.VerifyPolicy = policy
		cfg.Core.QuizFraction = 1
		baseline, err := Baseline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{MangleRead, MangleWrite, TruncateWrite} {
			t.Run(policy.String()+"/"+kind.String(), func(t *testing.T) {
				in := NewInjector(&Schedule{Seed: 1, Events: []Event{{Kind: kind, Replica: 0, Prob: 1000, Salt: 7}}})
				h := newRun(cfg)
				defer h.FS.Close()
				trail := analyze.NewAuditTrail(h.Engine.Now)
				h.Ctrl.AttachAudit(trail)
				in.AttachEngine(h.Engine)

				var mu sync.Mutex
				tampered := map[string][]string{} // a part's path: the lines its Tamper returned
				hook := h.Engine.TaskHook
				h.Engine.TaskHook = func(node cluster.NodeID, task *mapred.Task) mapred.TaskFault {
					f := hook(node, task)
					if tamper := f.Tamper; tamper != nil && task.Kind == mapred.ReduceTask {
						part := fmt.Sprintf("%s/part-r-%05d", task.Job.Spec.Output, task.Index)
						f.Tamper = func(lines []string) []string {
							produced := slices.Clone(lines)
							lines = tamper(lines)
							if !slices.Equal(lines, produced) {
								mu.Lock()
								tampered[part] = slices.Clone(lines)
								mu.Unlock()
							}
							return lines
						}
					}
					return f
				}

				res, err := h.Ctrl.Run(cfg.Script)
				if err != nil {
					t.Fatal(err)
				}
				if len(in.MangledReplicas()) == 0 {
					t.Fatal("no worker mangled anything")
				}
				mismatches := 0
				for _, ev := range trail.Events() {
					if ev.Kind != analyze.AuditMismatch || ev.Cause == analyze.CauseTimeout {
						continue
					}
					mismatches++
					if key := fmt.Sprintf("%s/r%d", ev.SID, ev.Replica); !in.WasMangled(key) {
						t.Errorf("mismatch pinned on %s, whose workers mangled nothing: %+v", key, ev)
					}
				}
				if mismatches == 0 {
					t.Error("the mangle went undetected")
				}
				for store, want := range baseline {
					got, err := h.FS.ReadTree(res.Outputs[store])
					if err != nil {
						t.Fatal(err)
					}
					sort.Strings(got)
					if !slices.Equal(got, want) {
						t.Errorf("verified output %s: %d records, the clean run's %d", store, len(got), len(want))
					}
				}
				if kind == MangleRead {
					return
				}
				if len(tampered) == 0 {
					t.Fatal("no task tampered with its output")
				}
				for part, lines := range tampered {
					if stored, err := h.FS.ReadTree(part); err != nil || !slices.Equal(stored, lines) {
						t.Errorf("%s holds %q (%v), its task's Tamper returned %q", part, stored, err, lines)
					}
				}
			})
		}
	}
}
