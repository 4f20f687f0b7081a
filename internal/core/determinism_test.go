package core

import (
	"reflect"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
)

// TestControllerFullyDeterministic: two identical controller runs —
// including a commission fault and the resulting detection — agree on
// every observable: latency, attempts, suspects, metrics, output
// bytes, the audit trail (kind, detail, nodes, removed and timestamp of
// every event, in order) and each node's suspicion level.
func TestControllerFullyDeterministic(t *testing.T) {
	runOnce := func() (*Result, []string, []analyze.AuditEvent, map[cluster.NodeID]float64) {
		h := newRig(12, 3)
		if err := h.Cluster.SetAdversary("node-004", cluster.FaultCommission, 1.0, 77); err != nil {
			t.Fatal(err)
		}
		ctrl := h.Assure(DefaultConfig())
		trail := analyze.NewAuditTrail(h.Engine.Now)
		ctrl.AttachAudit(trail)
		res, err := ctrl.Run(weatherScript)
		if err != nil {
			t.Fatal(err)
		}
		levels := make(map[cluster.NodeID]float64)
		for _, n := range h.Cluster.Nodes() {
			levels[n.ID] = h.Susp.Level(n.ID)
		}
		return res, h.outputLines(t, res, "out/counts"), trail.Events(), levels
	}
	r1, o1, audit1, levels1 := runOnce()
	r2, o2, audit2, levels2 := runOnce()
	if r1.LatencyUs != r2.LatencyUs {
		t.Errorf("latency differs: %d vs %d", r1.LatencyUs, r2.LatencyUs)
	}
	if r1.Attempts != r2.Attempts || r1.FaultyReplicas != r2.FaultyReplicas {
		t.Errorf("attempts/faults differ: %+v vs %+v", r1, r2)
	}
	if !reflect.DeepEqual(r1.Suspects, r2.Suspects) {
		t.Errorf("suspects differ: %v vs %v", r1.Suspects, r2.Suspects)
	}
	if r1.Metrics != r2.Metrics {
		t.Errorf("metrics differ:\n%+v\n%+v", r1.Metrics, r2.Metrics)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Error("verified outputs differ across identical runs")
	}
	if len(audit1) == 0 {
		t.Error("audit trail is empty: the commission fault left no evidence to compare")
	}
	if !reflect.DeepEqual(audit1, audit2) {
		t.Errorf("audit trails differ:\n%v\n%v", audit1, audit2)
	}
	if !reflect.DeepEqual(levels1, levels2) {
		t.Errorf("suspicion levels differ: %v vs %v", levels1, levels2)
	}
}

// TestControllerDeterministicAcrossPoolSizes: the compute-eager /
// commit-deterministic execution model promises that every virtual-time
// observable — latency, attempts, suspects, metrics, digest counts and
// verified output bytes — is byte-identical whether task bodies compute
// on one worker or many, even through a commission fault, detection,
// and speculative re-execution.
func TestControllerDeterministicAcrossPoolSizes(t *testing.T) {
	runWith := func(workers int) (*Result, []string) {
		h := newRig(12, 3)
		if err := h.Cluster.SetAdversary("node-004", cluster.FaultCommission, 1.0, 77); err != nil {
			t.Fatal(err)
		}
		h.Engine.Workers = workers
		h.Engine.Speculation = true
		ctrl := h.Assure(DefaultConfig())
		res, err := ctrl.Run(weatherScript)
		if err != nil {
			t.Fatal(err)
		}
		return res, h.outputLines(t, res, "out/counts")
	}
	base, baseOut := runWith(1)
	for _, w := range []int{4, 8, 0} {
		res, out := runWith(w)
		if res.LatencyUs != base.LatencyUs {
			t.Errorf("workers=%d: latency %d != %d", w, res.LatencyUs, base.LatencyUs)
		}
		if res.Attempts != base.Attempts || res.FaultyReplicas != base.FaultyReplicas {
			t.Errorf("workers=%d: attempts/faults differ: %+v vs %+v", w, res, base)
		}
		if res.DigestReports != base.DigestReports {
			t.Errorf("workers=%d: digest reports %d != %d", w, res.DigestReports, base.DigestReports)
		}
		if !reflect.DeepEqual(res.Suspects, base.Suspects) {
			t.Errorf("workers=%d: suspects differ: %v vs %v", w, res.Suspects, base.Suspects)
		}
		if res.Metrics != base.Metrics {
			t.Errorf("workers=%d: metrics differ:\n%+v\n%+v", w, res.Metrics, base.Metrics)
		}
		if !reflect.DeepEqual(out, baseOut) {
			t.Errorf("workers=%d: verified outputs differ", w)
		}
	}
}

// TestControllerRepeatedRunsAdvanceClock: the virtual clock carries
// across Run calls on one engine (suspicion history accumulates on a
// consistent timeline).
func TestControllerRepeatedRunsAdvanceClock(t *testing.T) {
	h := newHarness(t, 12, 3, DefaultConfig())
	if _, err := h.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	t1 := h.Engine.Now()
	if _, err := h.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	if h.Engine.Now() <= t1 {
		t.Errorf("clock did not advance: %d then %d", t1, h.Engine.Now())
	}
}

// TestMarkProperties: for arbitrary n the marker output is a duplicate-
// free subset of the candidate set with size min(n, |candidates|).
func TestMarkProperties(t *testing.T) {
	h := newHarness(t, 4, 2, DefaultConfig())
	_ = h
	// Use the analyze package through the controller's path indirectly:
	// parse the weather plan and check marker output shape for many n.
	// (The pure-analyze tests live in internal/analyze; this guards the
	// controller-facing contract.)
	for n := 0; n <= 8; n++ {
		cfg := DefaultConfig()
		cfg.Points = n
		h2 := newHarness(t, 8, 2, cfg)
		res, err := h2.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := map[int]bool{}
		for _, p := range res.PointsUsed {
			if seen[p] {
				t.Fatalf("n=%d: duplicate point %d", n, p)
			}
			seen[p] = true
		}
		// Points include the final output vertex plus at most n marks.
		if len(res.PointsUsed) > n+1 {
			t.Errorf("n=%d: %d points used", n, len(res.PointsUsed))
		}
		if len(res.PointsUsed) == 0 {
			t.Errorf("n=%d: final output must always be verified", n)
		}
	}
}
