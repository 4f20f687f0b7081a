package analyze

import (
	"strings"
	"testing"

	"clusterbft/internal/cluster"
)

func ids(ss ...string) []cluster.NodeID {
	out := make([]cluster.NodeID, len(ss))
	for i, s := range ss {
		out[i] = cluster.NodeID(s)
	}
	return out
}

func TestAuditTrailRecordsWithClock(t *testing.T) {
	now := int64(0)
	a := NewAuditTrail(func() int64 { return now })
	now = 10
	a.Add(AuditMismatch, ids("n2"), "digest deviated at point 3")
	now = 20
	a.AddRemoved(AuditIntersect, ids("n2"), ids("n1", "n3"), "evidence {n1 n2 n3} ∩ {n2 n4}")
	ev := a.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	if ev[0].T != 10 || ev[0].Kind != AuditMismatch {
		t.Errorf("event 0 = %+v", ev[0])
	}
	if ev[1].T != 20 || len(ev[1].Removed) != 2 {
		t.Errorf("event 1 = %+v", ev[1])
	}
}

func TestAuditTrailNilSafe(t *testing.T) {
	var a *AuditTrail
	a.Add(AuditMismatch, ids("n1"), "x")
	a.AddRemoved(AuditIntersect, nil, nil, "")
	if a.Events() != nil {
		t.Error("nil trail must be inert")
	}
}

func TestAuditTrailBounded(t *testing.T) {
	a := NewAuditTrail(nil)
	a.max = 3
	for i := 0; i < 5; i++ {
		a.Add(AuditScore, nil, string(rune('a'+i)))
	}
	ev := a.Events()
	if len(ev) != 3 || a.dropped != 2 {
		t.Fatalf("len = %d dropped = %d, want 3/2", len(ev), a.dropped)
	}
	if ev[0].Detail != "c" || ev[2].Detail != "e" {
		t.Errorf("retained window = %v..%v, want c..e", ev[0].Detail, ev[2].Detail)
	}
}

func TestRenderTimeline(t *testing.T) {
	a := NewAuditTrail(nil)
	a.Add(AuditMismatch, ids("n2"), "point 3")
	a.AddRemoved(AuditIntersect, ids("n2"), ids("n1"), "")
	a.Add(AuditConviction, ids("n2"), "singleton in D")
	out := RenderTimeline(a.Events(), 0)
	for _, want := range []string{"mismatch", "intersect", "exonerated=[n1]", "conviction", "(point 3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// Elision header when capped below the event count.
	capped := RenderTimeline(a.Events(), 1)
	if !strings.Contains(capped, "2 earlier events elided") {
		t.Errorf("capped timeline missing elision header:\n%s", capped)
	}
	if !strings.Contains(capped, "conviction") || strings.Contains(capped, "mismatch") {
		t.Errorf("capped timeline must keep only the most recent events:\n%s", capped)
	}
}

// TestAuditEventAttemptFields: Add and AddRemoved record events about no
// attempt (Replica -1, so a zero is never mistaken for replica 0);
// Record keeps the attempt fields it is handed, and the timeline names
// the attempt only where there is one — the simulator's lines, which
// have none, render as before.
func TestAuditEventAttemptFields(t *testing.T) {
	a := NewAuditTrail(nil)
	a.Add(AuditMismatch, ids("n2"), "point 3")
	a.AddRemoved(AuditIntersect, ids("n2"), ids("n1"), "")
	a.Record(AuditEvent{Kind: AuditMismatch, SID: "run1-c0-a0", Replica: 2, Cause: CauseCommission, Nodes: ids("n2")})
	a.Record(AuditEvent{Kind: AuditRetry, SID: "run1-c0-a0", Replica: -1, Cause: CauseTimeout})
	ev := a.Events()
	for _, e := range ev[:2] {
		if e.SID != "" || e.Replica != -1 || e.Cause != 0 {
			t.Errorf("event about no attempt carries attempt fields: %+v", e)
		}
	}
	if got, want := ev[0].String(), "t=0        mismatch        [n2]  (point 3)"; got != want {
		t.Errorf("attempt-less line = %q, want %q", got, want)
	}
	if got, want := ev[2].String(), "t=0        mismatch        run1-c0-a0/r2 commission [n2]"; got != want {
		t.Errorf("mismatch line = %q, want %q", got, want)
	}
	if got, want := ev[3].String(), "t=0        retry           run1-c0-a0 timeout"; got != want {
		t.Errorf("retry line = %q, want %q", got, want)
	}
	for k := AuditMismatch; k <= AuditCheckpoint; k++ {
		if k.String() == "audit(?)" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
