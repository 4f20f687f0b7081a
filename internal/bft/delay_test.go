package bft

import (
	"fmt"
	"strings"
	"testing"
)

// Agreement must hold under arbitrary (but fair) per-link message delays:
// reordering across links cannot produce divergent logs or wrong results.

func TestAgreementUnderRandomDelays(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, sms := newGroup(1)
			// Deterministic pseudo-random delays in [1ms, 40ms] per message.
			x := uint64(seed)
			g.Net.Delay = func(from, to ID) int64 {
				x = x*6364136223846793005 + 1442695040888963407
				return 1_000 + int64(x%40_000)
			}
			for i := 0; i < 4; i++ {
				op := fmt.Sprintf("op-%d", i)
				res, _, err := g.Invoke([]byte(op))
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				want := fmt.Sprintf("%d:%s", i+1, op)
				if string(res) != want {
					t.Fatalf("op %d: got %q, want %q", i, res, want)
				}
			}
			g.Net.RunWhile(50_000, nil) // drain stragglers
			ref := strings.Join(sms[0].ops, "|")
			for i, sm := range sms {
				if got := strings.Join(sm.ops, "|"); got != ref && len(sm.ops) == len(sms[0].ops) {
					t.Errorf("replica %d log %q != %q", i, got, ref)
				}
			}
		})
	}
}

func TestAgreementUnderDelaysWithSilentReplica(t *testing.T) {
	g, _ := newGroup(1)
	silent := ReplicaID(2)
	x := uint64(99)
	g.Net.Delay = func(from, to ID) int64 {
		x = x*6364136223846793005 + 1442695040888963407
		return 1_000 + int64(x%30_000)
	}
	g.Net.Drop = func(from, to ID, _ Message) bool { return from == silent }
	for i := 0; i < 3; i++ {
		res, _, err := g.Invoke([]byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := fmt.Sprintf("%d:v%d", i+1, i)
		if string(res) != want {
			t.Fatalf("op %d: %q != %q", i, res, want)
		}
	}
}

func TestSlowPrimaryLinkStillLive(t *testing.T) {
	// The primary's outbound link is slow but not dead: either the
	// protocol finishes in view 0 (slowly) or a view change takes over;
	// both must yield the correct result.
	g, _ := newGroup(1)
	primary := ReplicaID(0)
	g.Net.Delay = func(from, to ID) int64 {
		if from == primary {
			return 45_000 // just under the 50ms view-change timeout
		}
		return 1_000
	}
	res, lat, err := g.Invoke([]byte("slowly"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:slowly" {
		t.Errorf("result = %q", res)
	}
	if lat <= 0 {
		t.Error("latency not measured")
	}
}
