package experiments

import (
	"fmt"

	"clusterbft/internal/chaos"
	"clusterbft/internal/cluster"
)

// RecoveryRow is one fault scenario's end-to-end outcome on the chaos
// campaign workload, measured twice: the baseline recovery path (whole
// sub-graph re-execution, no speculation) and the checkpoint-granular
// path (verified interior outputs persisted and re-used, quantile
// straggler re-launch armed). Latencies are virtual time; Saves/Hits
// count checkpoint persists and launch-time skips in the checkpointed
// run.
type RecoveryRow struct {
	Scenario   string
	LatencyUs  int64
	Attempts   int
	Recoveries map[string]int
	Verified   bool
	Violations int

	CkptLatencyUs  int64
	CkptAttempts   int
	CkptRecoveries map[string]int
	CkptVerified   bool
	CkptViolations int
	CkptSaves      int64
	CkptHits       int64
}

// RecoveryResult is the recovery-latency table: the paper's recovery
// story (§4.2 retry at r+1, §4.3 fault isolation) measured as added
// virtual latency per injected fault class, against the clean run —
// before and after checkpoint-granular recovery.
type RecoveryResult struct {
	Rows []RecoveryRow
}

// Recovery runs one hand-built schedule per fault class through the
// deterministic fault-injection subsystem, once with the baseline
// recovery path and once with checkpoint-granular recovery plus
// speculation, and reports both recovery latencies relative to
// the fault-free run. Scenarios reuse the campaign workload (three
// chained sub-graphs, R=3 on a 6x2 cluster), so rows are comparable
// with campaign reports; every row is a pure function of the fixed
// schedules below.
func Recovery() (*RecoveryResult, error) {
	cfg := chaos.DefaultCampaign()
	baseline, err := chaos.Baseline(cfg)
	if err != nil {
		return nil, fmt.Errorf("recovery baseline: %w", err)
	}
	ckptCfg := cfg
	ckptCfg.Core.Checkpoint = true
	node := func(i int) cluster.NodeID {
		return cluster.NodeID(fmt.Sprintf("node-%03d", i))
	}
	scenarios := []struct {
		name  string
		sched *chaos.Schedule
	}{
		{"clean", &chaos.Schedule{}},
		{"crash+rejoin", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.CrashRejoin, Node: node(2), AtUs: 2_000_000, DownUs: 20_000_000, Salt: 11},
		}}},
		{"straggler x6", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.Straggler, Node: node(1), Slow: 6, Salt: 12},
		}}},
		{"hang p=0.6", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.HangTask, Node: node(3), Prob: 600, Salt: 13},
		}}},
		// One hanging node is masked by replication: verification takes
		// the first f+1 agreeing replicas and kills the laggard. Hanging
		// half the cluster exceeds that margin and forces the timeout
		// path — retry at r+1 with a doubled timeout (§4.2 step 6).
		{"hang 3 nodes p=0.9", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.HangTask, Node: node(0), Prob: 900, Salt: 21},
			{Kind: chaos.HangTask, Node: node(2), Prob: 900, Salt: 22},
			{Kind: chaos.HangTask, Node: node(4), Prob: 900, Salt: 23},
		}}},
		// A timed crash window: five of six nodes fail-stop after the
		// mid-pipeline sub-graph's interior job verified but before its
		// boundary job completes, and stay down past the verifier
		// timeout. The retry must re-run the whole sub-graph without
		// checkpoints; with them it re-executes only the suffix.
		{"crash 5 nodes 60s", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.CrashRejoin, Node: node(0), AtUs: 6_500_000, DownUs: 60_000_000, Salt: 31},
			{Kind: chaos.CrashRejoin, Node: node(1), AtUs: 6_500_000, DownUs: 60_000_000, Salt: 32},
			{Kind: chaos.CrashRejoin, Node: node(2), AtUs: 6_500_000, DownUs: 60_000_000, Salt: 33},
			{Kind: chaos.CrashRejoin, Node: node(3), AtUs: 6_500_000, DownUs: 60_000_000, Salt: 34},
			{Kind: chaos.CrashRejoin, Node: node(4), AtUs: 6_500_000, DownUs: 60_000_000, Salt: 35},
		}}},
		{"commission p=0.9", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.Commission, Node: node(4), Prob: 900, Salt: 14},
		}}},
		{"truncate-write", &chaos.Schedule{Events: []chaos.Event{
			{Kind: chaos.TruncateWrite, Replica: 1, Prob: 950, Salt: 15},
		}}},
	}
	res := &RecoveryResult{}
	for _, sc := range scenarios {
		sr := chaos.RunSchedule(cfg, sc.sched, baseline)
		cr := chaos.RunSchedule(ckptCfg, sc.sched, baseline)
		res.Rows = append(res.Rows, RecoveryRow{
			Scenario:   sc.name,
			LatencyUs:  sr.EndUs,
			Attempts:   sr.Attempts,
			Recoveries: sr.Recoveries,
			Verified:   sr.Verified,
			Violations: len(sr.Violations),

			CkptLatencyUs:  cr.EndUs,
			CkptAttempts:   cr.Attempts,
			CkptRecoveries: cr.Recoveries,
			CkptVerified:   cr.Verified,
			CkptViolations: len(cr.Violations),
			CkptSaves:      cr.CkptSaves,
			CkptHits:       cr.CkptHits,
		})
	}
	return res, nil
}

// Render prints the recovery-latency table, baseline and checkpointed
// paths side by side.
func (r *RecoveryResult) Render() string {
	var clean, ckptClean int64
	for _, row := range r.Rows {
		if row.Scenario == "clean" {
			clean = row.LatencyUs
			ckptClean = row.CkptLatencyUs
		}
	}
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Scenario,
			seconds(row.LatencyUs),
			ratio(row.LatencyUs, clean),
			renderRecov(row.Recoveries),
			recovOutcome(row.Verified, row.Violations),
			seconds(row.CkptLatencyUs),
			ratio(row.CkptLatencyUs, ckptClean),
			renderRecov(row.CkptRecoveries),
			fmt.Sprintf("%d/%d", row.CkptSaves, row.CkptHits),
			recovOutcome(row.CkptVerified, row.CkptViolations),
		}
	}
	return "recovery latency by fault class (campaign workload, R=3, 6x2 cluster):\n" +
		"columns: baseline recovery | checkpoint-granular recovery (+quantile speculation)\n" +
		table([]string{"scenario", "latency(s)", "vs clean", "actions", "outcome",
			"ckpt(s)", "vs clean", "actions", "saves/hits", "outcome"}, rows)
}

func recovOutcome(verified bool, violations int) string {
	out := "verified"
	if !verified {
		out = "failed"
	}
	if violations > 0 {
		out += fmt.Sprintf(" (%d violations)", violations)
	}
	return out
}

func renderRecov(m map[string]int) string {
	keys := []string{"retry", "restart", "fail"}
	out := ""
	for _, k := range keys {
		if m[k] > 0 {
			if out != "" {
				out += " "
			}
			out += fmt.Sprintf("%s:%d", k, m[k])
		}
	}
	if out == "" {
		return "-"
	}
	return out
}
