package core

import (
	"fmt"
	"strings"
)

// Explain renders the last run's replication structure: how the job DAG
// was cut into sub-graphs at the verification points, what each
// sub-graph contains, where its inputs came from, and how verification
// went. Valid after Run returns; used by cmd/clusterbft -explain.
func (c *Controller) Explain() string {
	if len(c.clusters) == 0 {
		return "core: no run to explain\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sub-graphs: %d\n", len(c.clusters))
	for _, cs := range c.clusters {
		status := "unverified"
		switch {
		case cs.verified:
			status = fmt.Sprintf("verified at %.2fs (winner replica %d)",
				float64(cs.verifiedAt)/1e6, cs.winner)
		case cs.failed:
			status = "FAILED"
		}
		kind := ""
		if cs.terminal {
			kind = " [final]"
		}
		fmt.Fprintf(&b, "c%d%s: attempts=%d r=%d %s\n", cs.id, kind, cs.totalTries, cs.r, status)
		if len(cs.upstream) > 0 {
			sep := "  reads from: "
			for _, u := range cs.upstream {
				if src, ok := cs.sources[u]; !ok {
					fmt.Fprintf(&b, "%sc%d", sep, u)
				} else if src.verified {
					fmt.Fprintf(&b, "%sc%d (replica %d, verified)", sep, u, src.replica)
				} else {
					fmt.Fprintf(&b, "%sc%d (replica %d, optimistic)", sep, u, src.replica)
				}
				sep = ", "
			}
			b.WriteByte('\n')
		}
		for _, t := range cs.tmpls {
			marker := ""
			if pts := t.spec.Points(); len(pts) > 0 {
				marker = fmt.Sprintf("  points=%v", pts)
			}
			fmt.Fprintf(&b, "  job %s -> %s%s\n", t.id, t.spec.Output, marker)
		}
		for i := range cs.plan.r {
			state := "not completed"
			switch {
			case cs.reps[i].faulty:
				state = "DEVIANT"
			case cs.reps[i].completed:
				state = "completed"
			}
			fmt.Fprintf(&b, "  replica %d: %s, nodes=%d\n", i, state, cs.reps[i].ranOn)
		}
	}
	return b.String()
}
