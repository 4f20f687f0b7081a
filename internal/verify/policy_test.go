package verify

import (
	"testing"

	"clusterbft/internal/cluster"
)

// TestDecidePolicyFromSuspicion pins decidePolicy's mapping from
// suspicion history to policy: clean -> deferred, Low -> quiz, Med/High
// -> full.
func TestDecidePolicyFromSuspicion(t *testing.T) {
	p := defaults()
	p.Policy = PolicyAuto
	susp := NewSuspicionTable(0)
	v := New(p, susp, NewFaultAnalyzer(p.F), ids("node-000", "node-001", "node-002", "node-003"))
	if got := v.decidePolicy(); got != PolicyDeferred {
		t.Errorf("clean history: got %v, want deferred", got)
	}
	// One fault over four jobs: s = 0.25 -> Low -> quiz.
	nodes := []cluster.NodeID{"node-000"}
	for i := 0; i < 4; i++ {
		susp.RecordJob(nodes)
	}
	susp.RecordFault(nodes)
	if got := v.decidePolicy(); got != PolicyQuiz {
		t.Errorf("low suspicion: got %v, want quiz", got)
	}
	// Two faults over four jobs: s = 0.5 -> Med -> full.
	susp.RecordFault(nodes)
	if got := v.decidePolicy(); got != PolicyFull {
		t.Errorf("medium suspicion: got %v, want full", got)
	}
}
