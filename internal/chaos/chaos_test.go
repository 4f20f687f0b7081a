package chaos

import (
	"reflect"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/tuple"
)

// TestGenerateDeterministic pins the schedule generator's core contract:
// a seed fully determines the schedule, and different seeds explore
// different fault plans.
func TestGenerateDeterministic(t *testing.T) {
	p := DefaultProfile(8)
	distinct := 0
	for seed := int64(1); seed <= 50; seed++ {
		a := Generate(seed, p)
		b := Generate(seed, p)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%s\n%s", seed, a, b)
		}
		if a.String() != Generate(seed+1, p).String() {
			distinct++
		}
	}
	if distinct < 40 {
		t.Errorf("only %d/50 adjacent seeds produced distinct schedules", distinct)
	}
}

// TestGenerateRespectsBounds checks the quorum-safety bounds: node
// victims stay within MaxVictims, net victims within F, and integrity
// faults stay within the f=1 attribution budget — all commission events
// share one victim node, all storage mangles share one victim replica,
// and a schedule never mixes the two families.
func TestGenerateRespectsBounds(t *testing.T) {
	p := DefaultProfile(8)
	p.MaxFaults = 6
	p.MaxVictims = 2
	for seed := int64(1); seed <= 200; seed++ {
		s := Generate(seed, p)
		if got := len(s.Victims()); got > p.MaxVictims {
			t.Errorf("seed %d: %d node victims, max %d", seed, got, p.MaxVictims)
		}
		netVictims := map[int]bool{}
		storageVictim := -1
		commissionVictim := ""
		for _, ev := range s.Events {
			switch ev.Kind {
			case NetDrop, NetDup, NetDelay:
				netVictims[ev.Replica] = true
			case MangleRead, MangleWrite, TruncateWrite:
				if storageVictim >= 0 && ev.Replica != storageVictim {
					t.Errorf("seed %d: storage events target replicas %d and %d",
						seed, storageVictim, ev.Replica)
				}
				storageVictim = ev.Replica
			case Commission:
				if commissionVictim != "" && string(ev.Node) != commissionVictim {
					t.Errorf("seed %d: commission events target nodes %s and %s",
						seed, commissionVictim, ev.Node)
				}
				commissionVictim = string(ev.Node)
			}
		}
		if len(netVictims) > p.F {
			t.Errorf("seed %d: %d net victims, max %d", seed, len(netVictims), p.F)
		}
		if storageVictim >= 0 && commissionVictim != "" {
			t.Errorf("seed %d: schedule mixes storage mangles with commission faults", seed)
		}
	}
}

// TestSaltedCorruptDistinctPerNode guards against commission collusion:
// two victim nodes must never corrupt a tuple into identical bytes, or
// their replicas could assemble a false f+1 agreement.
func TestSaltedCorruptDistinctPerNode(t *testing.T) {
	tamper := func(node cluster.NodeID, salt uint64, in tuple.Tuple) tuple.Tuple {
		out := make(tuple.Tuple, len(in))
		for i, v := range in {
			out[i] = saltedCorrupt(node, salt)(v, func(s, suffix string) string { return s + suffix })
		}
		return out
	}
	in := tuple.Tuple{tuple.Str("st01"), tuple.Int(17), tuple.Float(2.5)}
	a := tamper("node-000", 99, in)
	b := tamper("node-001", 99, in)
	if tuple.EqualTuples(a, in) || tuple.EqualTuples(b, in) {
		t.Fatal("corruption left the tuple unchanged")
	}
	if tuple.EqualTuples(a, b) {
		t.Errorf("nodes corrupt identically: %v", a)
	}
	// All-integer tuples are the dangerous case: no string field carries
	// the node tag, so distinctness rests entirely on the numeric delta.
	// Every victim pair across every salt must still diverge.
	ints := tuple.Tuple{tuple.Int(3), tuple.Int(40)}
	nodes := []string{"node-000", "node-001", "node-002", "node-003", "node-004", "node-005"}
	for salt := uint64(1); salt <= 50; salt++ {
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				ci := tamper(cluster.NodeID(nodes[i]), salt, ints)
				cj := tamper(cluster.NodeID(nodes[j]), salt, ints)
				if tuple.EqualTuples(ci, cj) {
					t.Fatalf("salt %d: %s and %s corrupt all-int tuples identically (%v)",
						salt, nodes[i], nodes[j], ci)
				}
			}
		}
	}
}

// TestReplicaOf pins the attempt-namespace parser the storage mangler
// uses for attribution.
func TestReplicaOf(t *testing.T) {
	idx, key, ok := replicaOf("x/run1-c2-a0/r3/im/j4/part-r-00001")
	if !ok || idx != 3 || key != "run1-c2-a0/r3" {
		t.Errorf("got (%d, %q, %v)", idx, key, ok)
	}
	for _, p := range []string{"data/weather", "x/sid", "x/sid/q1/out", ""} {
		if _, _, ok := replicaOf(p); ok {
			t.Errorf("%q parsed as a replica path", p)
		}
	}
}

// TestDetDeterministicAndSpread sanity-checks the per-site draw: pure,
// and roughly uniform over [0, 1000).
func TestDetDeterministicAndSpread(t *testing.T) {
	if det(7, "a/b") != det(7, "a/b") {
		t.Fatal("det is not pure")
	}
	low := 0
	for i := 0; i < 2000; i++ {
		if det(42, string(rune(i))+"/site") < 500 {
			low++
		}
	}
	if low < 800 || low > 1200 {
		t.Errorf("det badly skewed: %d/2000 below 500", low)
	}
}
