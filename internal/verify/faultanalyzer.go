package verify

import (
	"fmt"
	"sort"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
)

// NodeSet is a set of worker nodes.
type NodeSet map[cluster.NodeID]bool

// NewNodeSet builds a set from node IDs.
func NewNodeSet(ids ...cluster.NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Clone copies the set.
func (s NodeSet) Clone() NodeSet {
	c := make(NodeSet, len(s))
	for n := range s {
		c[n] = true
	}
	return c
}

// Intersect returns s ∩ t.
func (s NodeSet) Intersect(t NodeSet) NodeSet {
	out := make(NodeSet)
	for n := range s {
		if t[n] {
			out[n] = true
		}
	}
	return out
}

// Intersects reports whether s ∩ t is non-empty.
func (s NodeSet) Intersects(t NodeSet) bool {
	small, big := s, t
	if len(big) < len(small) {
		small, big = big, small
	}
	for n := range small {
		if big[n] {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ t.
func (s NodeSet) SubsetOf(t NodeSet) bool {
	if len(s) > len(t) {
		return false
	}
	for n := range s {
		if !t[n] {
			return false
		}
	}
	return true
}

// Sorted returns the members in ID order.
func (s NodeSet) Sorted() []cluster.NodeID {
	out := make([]cluster.NodeID, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FaultAnalyzer implements the FAULT_ANALYZER function of Fig 7: it
// receives the node sets of job clusters that returned commission faults
// and maintains a family D of disjoint suspicious sets — each assumed to
// hold exactly one faulty node — plus a family O of overlapping sets used
// to shrink the members of D by intersection once |D| reaches f.
type FaultAnalyzer struct {
	f int
	d []NodeSet
	o []NodeSet
	// reports counts faulty sets analyzed, the x-axis of Fig 11.
	reports int

	// Audit, when set, receives one event per reasoning step (set added
	// to D, refinement, intersection with exonerated nodes, saturation,
	// conviction). Nil disables logging.
	Audit *analyze.AuditTrail

	saturatedLogged bool
	convicted       map[cluster.NodeID]bool
}

// NewFaultAnalyzer builds an analyzer expecting up to f simultaneous
// faulty nodes.
func NewFaultAnalyzer(f int) *FaultAnalyzer {
	return &FaultAnalyzer{f: f}
}

// Disjoint returns the current family D (shared sets; callers must not
// mutate).
func (fa *FaultAnalyzer) Disjoint() []NodeSet { return fa.d }

// Saturated reports whether |D| has reached f — the point after which the
// suspect population stops growing (§6.3, Fig 11).
func (fa *FaultAnalyzer) Saturated() bool { return len(fa.d) >= fa.f }

// Suspects returns the union of D, the nodes currently under suspicion,
// sorted for determinism.
func (fa *FaultAnalyzer) Suspects() []cluster.NodeID {
	u := make(NodeSet)
	for _, x := range fa.d {
		for n := range x {
			u[n] = true
		}
	}
	return u.Sorted()
}

// Report analyzes the node set S of a job cluster that just returned a
// commission fault (Fig 7). Stage 1 grows/refines the disjoint family D;
// stage 2, active once |D| = f, intersects members of D with overlapping
// evidence that touches exactly one of them.
func (fa *FaultAnalyzer) Report(s NodeSet) {
	if len(s) == 0 {
		return
	}
	fa.reports++
	s = s.Clone()

	switch {
	case fa.disjointFromAllD(s):
		fa.d = append(fa.d, s) // lines 4-5
		fa.Audit.Add(analyze.AuditNewDisjoint, s.Sorted(),
			fmt.Sprintf("report #%d disjoint from D, |D|=%d", fa.reports, len(fa.d)))
		fa.noteSet(len(fa.d) - 1)
	case fa.strictSupersetInD(s) >= 0:
		// Lines 6-9: S refines a coarser suspicion set Y: Y moves to the
		// overlapping evidence, S replaces it.
		i := fa.strictSupersetInD(s)
		fa.Audit.AddRemoved(analyze.AuditRefine, s.Sorted(), diffSorted(fa.d[i], s),
			fmt.Sprintf("report #%d is a strict subset of D[%d]", fa.reports, i))
		fa.o = append(fa.o, fa.d[i])
		fa.d[i] = s
		fa.noteSet(i)
	default:
		fa.o = append(fa.o, s) // line 11
		fa.Audit.Add(analyze.AuditOverlap, s.Sorted(),
			fmt.Sprintf("report #%d overlaps D, kept as evidence, |O|=%d", fa.reports, len(fa.o)))
	}
	if !fa.saturatedLogged && fa.Saturated() {
		fa.saturatedLogged = true
		fa.Audit.Add(analyze.AuditSaturated, fa.Suspects(),
			fmt.Sprintf("|D| reached f=%d after %d reports", fa.f, fa.reports))
	}
	fa.refine()
}

// Blame charges a job cluster that returned a commission fault: the
// analyzer hears of it, and the suspicion table counts a fault on each
// node the evidence incriminates. That is every node of the cluster,
// unless |D| had already reached f: then a cluster that meets exactly one
// member of D only incriminates the intersection, the rest being provably
// bystanders, so the suspect population stops growing (§6.3: "the number
// of suspicious nodes will not increase after this point").
func Blame(fa *FaultAnalyzer, susp *SuspicionTable, s NodeSet) {
	wasSaturated := fa.Saturated()
	fa.Report(s)
	if wasSaturated {
		hits := 0
		var inter NodeSet
		for _, x := range fa.d {
			if s.Intersects(x) {
				hits++
				inter = s.Intersect(x)
			}
		}
		if hits == 1 {
			s = inter
		}
	}
	susp.RecordFault(s.Sorted())
}

// noteSet records a conviction when D[i] has narrowed to a single node.
func (fa *FaultAnalyzer) noteSet(i int) {
	if len(fa.d[i]) != 1 {
		return
	}
	var n cluster.NodeID
	for m := range fa.d[i] {
		n = m
	}
	if fa.convicted[n] {
		return
	}
	if fa.convicted == nil {
		fa.convicted = make(map[cluster.NodeID]bool)
	}
	fa.convicted[n] = true
	fa.Audit.Add(analyze.AuditConviction, []cluster.NodeID{n},
		fmt.Sprintf("D[%d] narrowed to a single node after %d reports", i, fa.reports))
}

// diffSorted returns the members of a not in b, sorted.
func diffSorted(a, b NodeSet) []cluster.NodeID {
	var out []cluster.NodeID
	for n := range a {
		if !b[n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (fa *FaultAnalyzer) disjointFromAllD(s NodeSet) bool {
	for _, x := range fa.d {
		if s.Intersects(x) {
			return false
		}
	}
	return true
}

// strictSupersetInD returns the index of a D member strictly containing
// s, or -1.
func (fa *FaultAnalyzer) strictSupersetInD(s NodeSet) int {
	for i, y := range fa.d {
		if len(s) < len(y) && s.SubsetOf(y) {
			return i
		}
	}
	return -1
}

// refine is stage 2 (Fig 7 lines 12-23): once |D| = f, each overlapping
// evidence set that intersects exactly one member of D must contain that
// member's faulty node, so the member shrinks to the intersection.
func (fa *FaultAnalyzer) refine() {
	if len(fa.d) < fa.f {
		return
	}
	changed := true
	for changed {
		changed = false
		for _, y := range fa.o {
			hit := -1
			for i, x := range fa.d {
				if y.Intersects(x) {
					if hit >= 0 {
						hit = -2 // touches several members: no information
						break
					}
					hit = i
				}
			}
			if hit < 0 {
				continue
			}
			inter := fa.d[hit].Intersect(y)
			if len(inter) > 0 && len(inter) < len(fa.d[hit]) {
				fa.Audit.AddRemoved(analyze.AuditIntersect, inter.Sorted(), diffSorted(fa.d[hit], inter),
					fmt.Sprintf("D[%d] ∩ overlapping evidence %v", hit, y.Sorted()))
				fa.d[hit] = inter
				changed = true
				fa.noteSet(hit)
			}
		}
	}
}
