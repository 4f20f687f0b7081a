package cluster

import (
	"testing"

	"clusterbft/internal/tuple"
)

func TestNewCluster(t *testing.T) {
	c := New(4, 3)
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.TotalSlots() != 12 {
		t.Errorf("TotalSlots = %d", c.TotalSlots())
	}
	if c.Nodes()[0].ID != "node-000" || c.Nodes()[3].ID != "node-003" {
		t.Errorf("node IDs: %v %v", c.Nodes()[0].ID, c.Nodes()[3].ID)
	}
	if c.Node("node-002") == nil {
		t.Error("lookup failed")
	}
	if c.Node("node-999") != nil {
		t.Error("unknown lookup should be nil")
	}
}

func TestSetAdversary(t *testing.T) {
	c := New(3, 2)
	if err := c.SetAdversary("node-001", FaultCommission, 1.0, 7); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAdversary("node-999", FaultOmission, 1.0, 7); err == nil {
		t.Error("unknown node should error")
	}
	faulty := c.FaultyNodes()
	if len(faulty) != 1 || faulty[0] != "node-001" {
		t.Errorf("FaultyNodes = %v", faulty)
	}
	if !c.Node("node-001").Faulty() {
		t.Error("node should report faulty")
	}
	if c.Node("node-000").Faulty() {
		t.Error("honest node reports faulty")
	}
}

func TestAdversaryFireAlways(t *testing.T) {
	a := NewAdversary(FaultCommission, 1.0, 1)
	for i := 0; i < 10; i++ {
		if !a.Fire() {
			t.Fatal("probability 1.0 must always fire")
		}
	}
}

func TestAdversaryFireNever(t *testing.T) {
	cases := []*Adversary{
		nil,
		NewAdversary(FaultNone, 1.0, 1),
		NewAdversary(FaultCommission, 0, 1),
	}
	for i, a := range cases {
		for j := 0; j < 10; j++ {
			if a.Fire() {
				t.Fatalf("case %d must never fire", i)
			}
		}
	}
}

func TestAdversaryFireProbabilistic(t *testing.T) {
	a := NewAdversary(FaultCommission, 0.5, 42)
	fires := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if a.Fire() {
			fires++
		}
	}
	if fires < trials/3 || fires > 2*trials/3 {
		t.Errorf("p=0.5 fired %d/%d times", fires, trials)
	}
}

func TestAdversaryDeterministicSeed(t *testing.T) {
	a := NewAdversary(FaultCommission, 0.5, 99)
	b := NewAdversary(FaultCommission, 0.5, 99)
	for i := 0; i < 100; i++ {
		if a.Fire() != b.Fire() {
			t.Fatal("same seed must give same draws")
		}
	}
}

// corruptAll is Corrupt over every value of in, strings concatenated
// plainly.
func corruptAll(in tuple.Tuple) tuple.Tuple {
	out := make(tuple.Tuple, len(in))
	for i, v := range in {
		out[i] = Corrupt(v, func(s, suffix string) string { return s + suffix })
	}
	return out
}

func TestCorruptChangesEveryField(t *testing.T) {
	in := tuple.Tuple{tuple.Int(5), tuple.Float(1.5), tuple.Str("x"), tuple.Null()}
	out := corruptAll(in)
	for i := range in {
		if tuple.Equal(in[i], out[i]) {
			t.Errorf("field %d unchanged: %v", i, out[i])
		}
	}
	// Original untouched.
	if in[0].Int() != 5 {
		t.Error("Corrupt mutated its input")
	}
}

func TestCorruptChangesDigestBytes(t *testing.T) {
	in := tuple.Tuple{tuple.Int(1), tuple.Str("a")}
	a := tuple.AppendCanonical(nil, in)
	b := tuple.AppendCanonical(nil, corruptAll(in))
	if string(a) == string(b) {
		t.Error("corruption must change canonical bytes")
	}
}

func TestFaultKindString(t *testing.T) {
	cases := map[FaultKind]string{
		FaultNone:       "none",
		FaultCommission: "commission",
		FaultOmission:   "omission",
		FaultKind(9):    "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
