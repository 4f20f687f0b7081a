package chaos

import (
	"fmt"
	"sort"
	"strings"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
)

// CampaignConfig parameterizes a batch of seeded end-to-end chaos runs.
type CampaignConfig struct {
	// Schedules is how many seeded schedules to run; seeds are
	// BaseSeed, BaseSeed+1, ...
	Schedules int
	BaseSeed  int64
	// Nodes and Slots shape the simulated cluster of every run.
	Nodes, Slots int
	// Script is the protected PigLatin script; Data seeds the DFS.
	Script string
	Data   map[string][]string
	// Core is the controller configuration shared by every run.
	Core core.Config
	// Profile bounds schedule generation.
	Profile Profile
	// NetOps, when > 0, additionally runs that many operations through a
	// BFT replica group under the schedule's network perturbations.
	NetOps int
	// Observe, when set, is called with every freshly built engine (the
	// baseline's and each schedule's) before the run starts, so a caller
	// can attach metrics, tracing, or a jobs board to a live campaign.
	Observe func(*mapred.Engine)
}

// DefaultCampaign is a three-sub-graph chain on a small weather workload:
// big enough that faults land mid-pipeline and restart cascades cross
// sub-graph boundaries, small enough to run hundreds of schedules. The
// first two sub-graphs each hold TWO chained MR jobs, so they contain
// intra-replica intermediate outputs — the only records a storage mangle
// may tamper with (mangling a verification-boundary output would be
// indistinguishable from an honest divergence). Its storage seals 512-byte
// blocks, dictionary-codes or deflates them and spills past a 1 KiB
// budget, so every schedule reads sealed blocks, some from the spill file:
// the read path that ships, not one unsealed tail per file.
func DefaultCampaign() CampaignConfig {
	script := `
w = LOAD 'data/weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
g2 = GROUP avgs BY a;
counts = FOREACH g2 GENERATE group AS a, COUNT(avgs) AS n;
g3 = GROUP counts BY n;
c3 = FOREACH g3 GENERATE group AS n, COUNT(counts) AS m;
g4 = GROUP c3 BY m;
c4 = FOREACH g4 GENERATE group AS m, COUNT(c3) AS q;
g5 = GROUP c4 BY q;
final = FOREACH g5 GENERATE group AS q, COUNT(c4) AS z;
STORE final INTO 'out/final';
`
	lines := make([]string, 240)
	for i := range lines {
		lines[i] = fmt.Sprintf("st%02d\t%d", i%8, (i*37)%40)
	}
	cfg := core.DefaultConfig()
	cfg.R = 3
	cfg.ForcePointAliases = []string{"counts", "c4"}
	cfg.TimeoutUs = 30_000_000
	cfg.MaxAttempts = 4
	cfg.Storage = dfs.Options{BlockSize: 512, MemBudget: 1 << 10, Compress: true}
	// MaxVictims 2 (> F) is deliberate: commission corruption is salted
	// per node, so two victim replicas of the same job still cannot form
	// a colluding f+1 majority — but a second victim makes genuine retry
	// rounds (not just speculative rescue) reachable.
	return CampaignConfig{
		Schedules: 200,
		BaseSeed:  1,
		Nodes:     6,
		Slots:     2,
		Script:    script,
		Data:      map[string][]string{"data/weather": lines},
		Core:      cfg,
		Profile: Profile{
			MaxFaults:     4,
			MaxVictims:    2,
			CrashWindowUs: 120_000_000,
		},
		NetOps: 4,
	}
}

// ScheduleResult is the outcome of one seeded run plus any invariant
// violations it produced.
type ScheduleResult struct {
	Seed       int64
	Desc       string // deterministic schedule rendering
	Verified   bool
	Err        string
	Attempts   int
	Clusters   int
	EndUs      int64 // virtual time when the simulation drained
	Recoveries map[string]int
	Mangled    int
	NetAgreed  int
	NetRan     bool
	// CkptSaves/CkptHits count checkpoint persists and launch-time skips
	// (always zero unless the campaign runs with Core.Checkpoint).
	CkptSaves  int64
	CkptHits   int64
	Violations []string
}

// Report aggregates a campaign; Render is deterministic, so two runs of
// the same campaign must produce byte-identical reports.
type Report struct {
	Config  string
	Results []ScheduleResult
}

// Violations flattens every invariant violation across the campaign.
func (r *Report) Violations() []string {
	var out []string
	for _, sr := range r.Results {
		for _, v := range sr.Violations {
			out = append(out, fmt.Sprintf("seed=%d: %s", sr.Seed, v))
		}
	}
	return out
}

// Render produces the campaign report: one line per schedule plus a
// summary block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: %s\n", r.Config)
	verified, failed := 0, 0
	for _, sr := range r.Results {
		outcome := "verified"
		if !sr.Verified {
			outcome = "failed(" + sr.Err + ")"
			failed++
		} else {
			verified++
		}
		net := "-"
		if sr.NetRan {
			net = fmt.Sprintf("%d/agreed", sr.NetAgreed)
		}
		ckpt := ""
		if sr.CkptSaves > 0 || sr.CkptHits > 0 {
			ckpt = fmt.Sprintf(" ckpt=%d/%dhit", sr.CkptSaves, sr.CkptHits)
		}
		fmt.Fprintf(&b, "%-90s | %s attempts=%d end=%dus recov=%s mangled=%d net=%s%s\n",
			sr.Desc, outcome, sr.Attempts, sr.EndUs, renderCounts(sr.Recoveries), sr.Mangled, net, ckpt)
		for _, v := range sr.Violations {
			fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(&b, "schedules=%d verified=%d failed=%d violations=%d\n",
		len(r.Results), verified, failed, len(r.Violations()))
	return b.String()
}

func renderCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// RunCampaign executes the configured number of seeded schedules and
// checks the global invariants after each: every sub-graph ends Verified
// or explicitly failed, verified outputs are byte-identical to a clean
// run, slot accounting returns to cluster capacity, and every fault
// attribution in the audit trail traces back to an injected fault. The
// returned error is non-nil only when the campaign itself cannot run
// (e.g. the fault-free baseline fails); schedule-level violations are in
// the report.
func RunCampaign(cfg CampaignConfig) (*Report, error) {
	baseline, err := Baseline(cfg)
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free baseline: %w", err)
	}
	rep := &Report{
		Config: fmt.Sprintf("schedules=%d base-seed=%d nodes=%dx%d r=%d maxAttempts=%d",
			cfg.Schedules, cfg.BaseSeed, cfg.Nodes, cfg.Slots, cfg.Core.R, cfg.Core.MaxAttempts),
	}
	for i := 0; i < cfg.Schedules; i++ {
		seed := cfg.BaseSeed + int64(i)
		rep.Results = append(rep.Results, RunSchedule(cfg, Generate(seed, cfg), baseline))
	}
	return rep, nil
}

// Baseline runs the campaign script once with no faults and returns the
// sorted record set of every STORE output — the ground truth RunSchedule
// checks verified outputs against.
func Baseline(cfg CampaignConfig) (map[string][]string, error) {
	h := newRun(cfg)
	defer h.FS.Close()
	res, err := h.Ctrl.Run(cfg.Script)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(res.Outputs))
	for store, path := range res.Outputs {
		lines, err := h.FS.ReadTree(path)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", path, err)
		}
		sort.Strings(lines)
		out[store] = lines
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("script has no STORE outputs")
	}
	return out, nil
}

// newRun builds one run's deployment: seeded storage, a fresh cluster
// and engine (observed before the controller reads its registry), and
// the control tier from cfg.Core.
func newRun(cfg CampaignConfig) *core.System {
	h := core.NewSystem(cfg.Nodes, cfg.Slots, cfg.Core.Storage, mapred.DefaultCostModel())
	for path, lines := range cfg.Data {
		h.FS.Append(path, lines...)
	}
	if cfg.Observe != nil {
		cfg.Observe(h.Engine)
	}
	h.Assure(cfg.Core)
	return h
}

// RunSchedule executes one explicit (possibly hand-built) schedule under
// the campaign config and checks the global invariants on it. baseline
// may come from Baseline; nil skips the output comparison.
func RunSchedule(cfg CampaignConfig, sched *Schedule, baseline map[string][]string) ScheduleResult {
	in := NewInjector(sched)
	h := newRun(cfg)
	defer h.FS.Close()
	trail := analyze.NewAuditTrail(h.Engine.Now)
	h.Ctrl.AttachAudit(trail)
	sr := ScheduleResult{Seed: sched.Seed, Desc: sched.String(), Recoveries: map[string]int{}}
	in.AttachEngine(h.Engine)

	res, err := h.Ctrl.Run(cfg.Script)
	sr.EndUs = h.Engine.Now()
	sr.Verified = err == nil
	if err != nil {
		sr.Err = err.Error()
	}
	events := trail.Events()
	for _, ev := range events {
		switch ev.Kind {
		case analyze.AuditLaunch, analyze.AuditVerify, analyze.AuditEscalate,
			analyze.AuditRetry, analyze.AuditRestart, analyze.AuditFail:
			sr.Recoveries[ev.Kind.String()]++
		}
	}
	states := h.Ctrl.ClusterStates()
	sr.Clusters = len(states)
	for _, st := range states {
		sr.Attempts += st.Attempts
	}
	sr.Mangled = len(in.MangledReplicas())
	ckpt := h.Ctrl.CheckpointStats()
	sr.CkptSaves, sr.CkptHits = ckpt.Saves, ckpt.Hits

	bad := func(format string, args ...any) {
		sr.Violations = append(sr.Violations, fmt.Sprintf(format, args...))
	}

	// I7: checkpoint-granular recovery stays inside the protocol — a skip
	// can only consume a previously persisted f+1-agreed output, and the
	// off-configuration must never write or consume any. (Byte-identical
	// verified outputs under checkpointing is I3, which runs unchanged on
	// the checkpoint campaign leg.)
	if ckpt.Hits > 0 && ckpt.Saves == 0 {
		bad("checkpoint hits=%d with no saves", ckpt.Hits)
	}
	if !cfg.Core.Checkpoint && (ckpt.Saves > 0 || ckpt.Hits > 0) {
		bad("checkpointing disabled but saves=%d hits=%d", ckpt.Saves, ckpt.Hits)
	}

	// I1: terminal state — verified everywhere, or an explicit failure.
	if err == nil {
		for _, st := range states {
			if !st.Verified {
				bad("run verified but sub-graph c%d is not", st.ID)
			}
		}
	} else {
		failed := false
		for _, st := range states {
			if st.Failed {
				failed = true
			}
		}
		if !failed {
			bad("run errored (%v) with no sub-graph marked failed", err)
		}
	}
	// I5: verification respects dataflow — no sub-graph may be verified
	// on top of an unverified upstream.
	for _, st := range states {
		if !st.Verified {
			continue
		}
		for _, u := range st.Upstream {
			if !states[u].Verified {
				bad("sub-graph c%d verified over unverified upstream c%d", st.ID, u)
			}
		}
	}
	// I2: slot accounting returns to full capacity (every crash is paired
	// with a rejoin inside the drained event horizon).
	if free, total := h.Engine.FreeSlotsTotal(), h.Cluster.TotalSlots(); free != total {
		bad("slot leak: free=%d total=%d", free, total)
	}
	// I6: cost attribution is complete — after the simulation drains,
	// every CPU microsecond the engine charged must sit in exactly one
	// ledger bucket (committed, replica waste, verify, recovery rerun).
	if got, want := h.Engine.Ledger.Buckets().TotalUs(), h.Engine.Metrics.CPUTimeUs; got != want {
		bad("cost ledger leak: buckets sum to %dus but engine charged %dus (unattributed=%d)",
			got, want, want-got)
	}
	// Teardown folded every sid, and an attempt resolves before its sid
	// folds: a charge that came after a fold would hold a sid live here.
	if n := h.Engine.Ledger.Sizes(); n != 0 {
		bad("cost ledger holds %d sids after teardown", n)
	}
	// I3: a verified run's outputs are byte-identical to the clean run.
	if err == nil && res != nil {
		for store, want := range baseline {
			path, ok := res.Outputs[store]
			if !ok {
				bad("verified run missing output %s", store)
				continue
			}
			got, rerr := h.FS.ReadTree(path)
			if rerr != nil {
				bad("read verified output %s: %v", path, rerr)
				continue
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				bad("verified output %s differs from clean run (%d records vs %d)",
					store, len(got), len(want))
			}
		}
	}
	// I4: every commission-fault attribution is legitimate — the deviant
	// replica had its data mangled by the injector, or its job cluster
	// contains a scheduled victim node. Omission timeouts are exempt: the
	// paper's omission handling deliberately over-approximates.
	victims := map[cluster.NodeID]bool{}
	for _, n := range sched.Victims() {
		victims[n] = true
	}
	blamed := map[cluster.NodeID]bool{}
	for _, ev := range events {
		if ev.Kind != analyze.AuditMismatch {
			continue
		}
		for _, n := range ev.Nodes {
			blamed[n] = true
		}
		if ev.Cause == analyze.CauseTimeout {
			continue
		}
		if in.WasMangled(fmt.Sprintf("%s/r%d", ev.SID, ev.Replica)) {
			continue
		}
		hit := false
		for _, n := range ev.Nodes {
			if victims[n] {
				hit = true
			}
		}
		if !hit {
			bad("mismatch blamed %v but no victim present and replica %s/r%d not mangled", ev.Nodes, ev.SID, ev.Replica)
		}
	}
	// Suspicion consistency: the fault analyzer may only suspect nodes
	// that appear in recorded evidence.
	for _, s := range h.Ctrl.FA.Suspects() {
		if !blamed[s] {
			bad("analyzer suspects %s with no supporting audit evidence", s)
		}
	}
	// Clean schedules must run clean: no retries, no fault evidence.
	if len(sched.Events) == 0 {
		if err != nil {
			bad("clean schedule failed: %v", err)
		}
		if sr.Recoveries["retry"] > 0 || sr.Recoveries["restart"] > 0 || sr.Recoveries["fail"] > 0 {
			bad("clean schedule triggered recovery: %s", renderCounts(sr.Recoveries))
		}
		if len(blamed) > 0 {
			bad("clean schedule produced fault evidence against %d nodes", len(blamed))
		}
	}

	// Network chaos: the BFT control group must keep agreeing under the
	// schedule's quorum-bounded message perturbations.
	if cfg.NetOps > 0 && sched.HasNetEvents() {
		sr.NetRan = true
		agreed, nerr := netRun(in, cfg.Core.F, cfg.NetOps)
		sr.NetAgreed = agreed
		if nerr != nil {
			bad("bft group under perturbation: %v", nerr)
		}
	}
	return sr
}

// HasNetEvents reports whether the schedule perturbs the BFT network.
func (s *Schedule) HasNetEvents() bool {
	for _, e := range s.Events {
		switch e.Kind {
		case NetDrop, NetDup, NetDelay:
			return true
		}
	}
	return false
}
