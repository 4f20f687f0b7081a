package experiments

import (
	"fmt"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
	"clusterbft/internal/workload"
)

// VerifyCostRow measures one verification policy on the follower
// workload: fault-free cost (latency and total untrusted+trusted CPU)
// and detection latency against a commission-faulty primary.
type VerifyCostRow struct {
	Policy    string
	LatencyUs int64
	CPUUs     int64
	QuizTasks int64
	// DetectUs is the virtual time from submission to the first
	// mismatch/escalation audit event when every replica-0 map task
	// computes on tampered tuples; the faulty run must still end
	// verified (escalation recovers it).
	DetectUs int64
	// RecoverUs is the faulty run's total latency (detection + rerun).
	RecoverUs int64
	// Cost is the fault-free run's cost-attribution ledger: where the
	// policy's CPU went (committed output vs replica waste vs
	// verification redundancy; recovery_rerun is zero fault-free).
	Cost mapred.CostBuckets
}

// VerifyCostResult is the overhead-vs-detection-latency table for the
// verification policies: full-r pays ~r x compute always and detects
// online; quiz/deferred pay 1+ε and detect at quiz time (quiz) or
// possibly after optimistic downstream work (deferred).
type VerifyCostResult struct {
	Name   string
	PureUs int64
	// PureCPUUs is the unreplicated, unverified engine CPU total.
	PureCPUUs int64
	// PureCost is the pure run's ledger: all committed, by definition.
	PureCost mapred.CostBuckets
	Rows     []VerifyCostRow
}

// Render prints the table with ratios against the full-r policy.
func (r *VerifyCostResult) Render() string {
	var fullCPU int64
	for _, row := range r.Rows {
		if row.Policy == "full" {
			fullCPU = row.CPUUs
		}
	}
	rows := [][]string{{
		"pure", seconds(r.PureUs), seconds(r.PureCPUUs), "-", "-",
		seconds(r.PureCost.CommittedUs), seconds(r.PureCost.VerifyUs()),
		seconds(r.PureCost.ReplicaWasteUs), "-", "-",
	}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy,
			seconds(row.LatencyUs),
			seconds(row.CPUUs),
			ratio(row.CPUUs, fullCPU),
			fmt.Sprintf("%d", row.QuizTasks),
			seconds(row.Cost.CommittedUs),
			seconds(row.Cost.VerifyUs()),
			seconds(row.Cost.ReplicaWasteUs),
			seconds(row.DetectUs),
			seconds(row.RecoverUs),
		})
	}
	return r.Name + "\n" + table(
		[]string{"policy", "latency(s)", "cpu(s)", "cpu/full", "quizzes",
			"committed(s)", "verify(s)", "waste(s)", "detect(s)", "recover(s)"}, rows)
}

// verifyCostConfig is the shared controller setup: f=1, marker points,
// generous timeout so detection latency is driven by evidence, not
// timers.
func verifyCostConfig(p verify.Policy) core.Config {
	return core.Config{
		F: 1, R: 4, Points: 2, NumReduces: 2,
		TimeoutUs: 3_600_000_000, Offline: true,
		VerifyPolicy: p,
	}
}

// corruptPrimaryHook tampers every replica-0 map task (the primary of a
// quiz/deferred attempt; one of r replicas under full-r), deterministic
// in dispatch order.
func corruptPrimaryHook(_ cluster.NodeID, t *mapred.Task) mapred.TaskFault {
	if t.Kind == mapred.MapTask && t.Job.Spec.Replica == 0 {
		return mapred.TaskFault{Corrupt: cluster.Corrupt}
	}
	return mapred.TaskFault{}
}

// VerifyCost produces the overhead-vs-detection table for the
// verification policies (-exp verifycost). Fault-free rows use the
// default quiz fraction (0.25); the adversarial detection runs quiz at
// fraction 1 so a corrupted map task is always in the sample.
func VerifyCost(sc Scale) (*VerifyCostResult, error) {
	data := workload.Twitter(sc.TwitterEdges, sc.TwitterUsers, sc.Seed)
	script := workload.FollowerScript
	res := &VerifyCostResult{Name: "Verification policies: fault-free cost vs detection latency"}

	pure := newRig(sc, workload.TwitterPath, data)
	lat, err := core.RunPlain(pure.Engine, script)
	if err != nil {
		return nil, fmt.Errorf("verifycost pure: %w", err)
	}
	res.PureUs = lat
	res.PureCPUUs = pure.Engine.Metrics.CPUTimeUs
	res.PureCost = pure.Engine.Ledger.Buckets()

	for _, p := range []verify.Policy{verify.PolicyFull, verify.PolicyQuiz, verify.PolicyDeferred} {
		row := VerifyCostRow{Policy: p.String()}

		// Fault-free cost.
		r := newRig(sc, workload.TwitterPath, data)
		cr, err := r.controller(verifyCostConfig(p)).Run(script)
		if err != nil {
			return nil, fmt.Errorf("verifycost %s: %w", p, err)
		}
		row.LatencyUs = cr.LatencyUs
		row.CPUUs = cr.Metrics.CPUTimeUs
		row.QuizTasks = r.Engine.QuizTasks
		row.Cost = r.Engine.Ledger.Buckets()

		// Detection latency under a commission-faulty primary.
		cfg := verifyCostConfig(p)
		cfg.QuizFraction = 1
		r2 := newRig(sc, workload.TwitterPath, data)
		r2.Engine.TaskHook = corruptPrimaryHook
		ctrl := r2.controller(cfg)
		trail := analyze.NewAuditTrail(r2.Engine.Now)
		ctrl.AttachAudit(trail)
		start := r2.Engine.Now()
		cr2, err := ctrl.Run(script)
		if err != nil {
			return nil, fmt.Errorf("verifycost %s adversarial: %w", p, err)
		}
		if !cr2.Verified {
			return nil, fmt.Errorf("verifycost %s adversarial: run not verified", p)
		}
		row.DetectUs = -1
		for _, e := range trail.Events() {
			if e.Kind == analyze.AuditMismatch || e.Kind == analyze.AuditEscalate {
				row.DetectUs = e.T - start
				break
			}
		}
		if row.DetectUs < 0 {
			return nil, fmt.Errorf("verifycost %s adversarial: commission fault never detected", p)
		}
		row.RecoverUs = cr2.LatencyUs
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
