package verify

import (
	"reflect"
	"testing"

	"clusterbft/internal/cluster"
)

func set(ns ...string) NodeSet { return NewNodeSet(ids(ns...)...) }

func TestNodeSetOps(t *testing.T) {
	a := set("x", "y", "z")
	b := set("y", "q")
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("Intersects failed")
	}
	inter := a.Intersect(b)
	if len(inter) != 1 || !inter["y"] {
		t.Errorf("Intersect = %v", inter)
	}
	if a.Intersects(set("nope")) {
		t.Error("disjoint sets must not intersect")
	}
	if !set("x").SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf failed")
	}
	c := a.Clone()
	delete(c, "x")
	if !a["x"] {
		t.Error("Clone aliases storage")
	}
	if got := set("b", "a").Sorted(); got[0] != "a" || got[1] != "b" {
		t.Errorf("Sorted = %v", got)
	}
}

func TestAnalyzerFirstReportDisjoint(t *testing.T) {
	fa := NewFaultAnalyzer(1)
	fa.Report(set("a", "b", "c"))
	if len(fa.Disjoint()) != 1 || len(fa.o) != 0 {
		t.Fatalf("D=%v O=%v", fa.Disjoint(), fa.o)
	}
	if !fa.Saturated() {
		t.Error("f=1 with one disjoint set should saturate")
	}
	if fa.reports != 1 {
		t.Errorf("Reports = %d", fa.reports)
	}
}

func TestAnalyzerSubsetRefines(t *testing.T) {
	fa := NewFaultAnalyzer(1)
	fa.Report(set("a", "b", "c", "d"))
	fa.Report(set("b", "c"))
	d := fa.Disjoint()
	if len(d) != 1 {
		t.Fatalf("D = %v", d)
	}
	if len(d[0]) != 2 || !d[0]["b"] || !d[0]["c"] {
		t.Errorf("refined set = %v", d[0].Sorted())
	}
	if len(fa.o) != 1 {
		t.Errorf("O = %v", fa.o)
	}
}

func TestAnalyzerIntersectionNarrowsToFaultyNode(t *testing.T) {
	// Faulty node "m" appears in every faulty cluster; overlapping
	// evidence should shrink D to exactly {m}.
	fa := NewFaultAnalyzer(1)
	fa.Report(set("a", "b", "m"))
	fa.Report(set("c", "d", "m")) // overlaps only via m
	d := fa.Disjoint()
	if len(d) != 1 {
		t.Fatalf("D = %v", d)
	}
	if !reflect.DeepEqual(d[0].Sorted(), ids("m")) {
		t.Errorf("suspect set = %v, want [m]", d[0].Sorted())
	}
	if got := fa.Suspects(); len(got) != 1 || got[0] != "m" {
		t.Errorf("Suspects = %v", got)
	}
}

func TestAnalyzerTwoFaults(t *testing.T) {
	fa := NewFaultAnalyzer(2)
	fa.Report(set("a", "b", "m1"))
	if fa.Saturated() {
		t.Error("one set with f=2 should not saturate")
	}
	fa.Report(set("c", "d", "m2")) // disjoint -> second member of D
	if !fa.Saturated() {
		t.Fatal("two disjoint sets with f=2 should saturate")
	}
	// Evidence touching only the first member narrows it.
	fa.Report(set("e", "m1"))
	// Evidence touching only the second member narrows it.
	fa.Report(set("f", "m2"))
	suspects := fa.Suspects()
	if !reflect.DeepEqual(suspects, ids("m1", "m2")) {
		t.Errorf("Suspects = %v, want [m1 m2]", suspects)
	}
}

func TestAnalyzerAmbiguousEvidenceGoesToO(t *testing.T) {
	fa := NewFaultAnalyzer(2)
	fa.Report(set("a", "m1"))
	fa.Report(set("b", "m2"))
	// Touches both members of D: gives no narrowing on its own.
	fa.Report(set("m1", "m2", "z"))
	d := fa.Disjoint()
	if len(d) != 2 {
		t.Fatalf("D = %v", d)
	}
	if len(d[0])+len(d[1]) != 4 {
		t.Errorf("ambiguous evidence should not shrink D: %v %v", d[0].Sorted(), d[1].Sorted())
	}
	if len(fa.o) != 1 {
		t.Errorf("O = %v", fa.o)
	}
}

func TestAnalyzerEmptySetIgnored(t *testing.T) {
	fa := NewFaultAnalyzer(1)
	fa.Report(NodeSet{})
	if fa.reports != 0 || len(fa.Disjoint()) != 0 {
		t.Error("empty set must be ignored")
	}
}

func TestAnalyzerReportClonesInput(t *testing.T) {
	fa := NewFaultAnalyzer(1)
	s := set("a", "b")
	fa.Report(s)
	s["c"] = true
	if fa.Disjoint()[0]["c"] {
		t.Error("analyzer aliases caller's set")
	}
}

func TestAnalyzerRetroactiveRefinement(t *testing.T) {
	// Ambiguous evidence received before saturation becomes useful once
	// |D| = f and refine re-runs over O.
	fa := NewFaultAnalyzer(1)
	fa.Report(set("a", "b", "m"))
	fa.Report(set("b", "m")) // subset: refines to {b, m}
	fa.Report(set("m", "q")) // touches only D[0]: narrows to {m}
	if got := fa.Suspects(); len(got) != 1 || got[0] != "m" {
		t.Errorf("Suspects = %v", got)
	}
}

func TestAnalyzerManyJobsConvergence(t *testing.T) {
	// Simulated stream: every faulty cluster contains node "evil" plus
	// rotating bystanders; convergence should reach exactly {evil}.
	fa := NewFaultAnalyzer(1)
	bystanders := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
	for i := 0; i < 5; i++ {
		members := []cluster.NodeID{"evil",
			cluster.NodeID(bystanders[i%len(bystanders)]),
			cluster.NodeID(bystanders[(i+1)%len(bystanders)])}
		fa.Report(NewNodeSet(members...))
	}
	if got := fa.Suspects(); len(got) != 1 || got[0] != "evil" {
		t.Errorf("Suspects = %v, want [evil]", got)
	}
}

// TestFaultAnalyzerDisjointInvariant property-checks Fig 7's core
// invariant: members of D stay pairwise disjoint and non-empty under any
// report sequence.
func TestFaultAnalyzerDisjointInvariant(t *testing.T) {
	// Deterministic pseudo-random set stream.
	seq := []NodeSet{}
	x := uint32(12345)
	next := func(n int) uint32 { x = x*1664525 + 1013904223; return x % uint32(n) }
	for i := 0; i < 200; i++ {
		s := make(NodeSet)
		for j := 0; j < int(next(6))+1; j++ {
			s[cluster.NodeID(string(rune('a'+next(15))))] = true
		}
		seq = append(seq, s)
	}
	for _, f := range []int{1, 2, 3} {
		fa := NewFaultAnalyzer(f)
		for i, s := range seq {
			fa.Report(s)
			d := fa.Disjoint()
			for a := 0; a < len(d); a++ {
				if len(d[a]) == 0 {
					t.Fatalf("f=%d step %d: empty member of D", f, i)
				}
				for b := a + 1; b < len(d); b++ {
					if d[a].Intersects(d[b]) {
						t.Fatalf("f=%d step %d: D members intersect: %v %v",
							f, i, d[a].Sorted(), d[b].Sorted())
					}
				}
			}
		}
	}
}
