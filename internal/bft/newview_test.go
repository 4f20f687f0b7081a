package bft

import (
	"testing"
)

// TestViewChangeAfterPartialProgress is the regression test for the
// new-view sequence-numbering bug: when a slot's pre-prepare was seen
// but the round stalled before execution (here: every view-0 prepare is
// lost), the new primary must re-propose starting right after the last
// EXECUTED sequence. The pre-fix code restarted after the highest
// PROPOSED sequence, leaving a permanent hole below the re-proposals —
// installView purges unexecuted slots, the in-order execution loop can
// never cross the hole, and the group live-locks through endless view
// changes with the request pending forever.
func TestViewChangeAfterPartialProgress(t *testing.T) {
	g, sms := newGroup(1)
	g.Net.Drop = func(from, to ID, msg Message) bool {
		p, ok := msg.(Prepare)
		return ok && p.View == 0
	}
	res, _, err := g.Invoke([]byte("held-op"))
	if err != nil {
		t.Fatalf("view change after a stalled round did not recover: %v", err)
	}
	if string(res) != "1:held-op" {
		t.Errorf("result = %q, want %q", res, "1:held-op")
	}
	for i, r := range g.Replicas {
		if r.view == 0 {
			t.Errorf("replica %d still in view 0; the stall never triggered a view change", i)
		}
	}
	// Progress must continue in the new view.
	res, _, err = g.Invoke([]byte("next-op"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "2:next-op" {
		t.Errorf("second result = %q", res)
	}
	for i, sm := range sms {
		if len(sm.ops) > 0 && sm.ops[0] != "held-op" {
			t.Errorf("replica %d executed %q first, want held-op", i, sm.ops[0])
		}
	}
}
