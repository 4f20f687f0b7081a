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
		case cs.sub.Verified:
			status = fmt.Sprintf("verified at %.2fs (winner replica %d)",
				float64(cs.verifiedAt)/1e6, cs.sub.Winner)
		case cs.sub.Failed:
			status = "FAILED"
		}
		kind := ""
		if cs.terminal {
			kind = " [final]"
		}
		fmt.Fprintf(&b, "c%d%s: attempts=%d r=%d %s\n", cs.sub.ID, kind, cs.sub.TotalTries, cs.sub.R, status)
		if len(cs.sub.Upstream) > 0 {
			sep := "  reads from: "
			for _, u := range cs.sub.Upstream {
				if src, ok := cs.sub.Sources[u]; !ok {
					fmt.Fprintf(&b, "%sc%d", sep, u)
				} else if src.Verified {
					fmt.Fprintf(&b, "%sc%d (replica %d, verified)", sep, u, src.Replica)
				} else {
					fmt.Fprintf(&b, "%sc%d (replica %d, optimistic)", sep, u, src.Replica)
				}
				sep = ", "
			}
			b.WriteByte('\n')
		}
		for _, t := range cs.sub.Tmpls {
			spec, marker := c.jobs[t.ID].spec, ""
			if pts := spec.Points(); len(pts) > 0 {
				marker = fmt.Sprintf("  points=%v", pts)
			}
			fmt.Fprintf(&b, "  job %s -> %s%s\n", spec.ID, spec.Output, marker)
		}
		for i := range cs.plan.R {
			rep, state := cs.sub.Reps[i], "not completed"
			switch {
			case rep.Faulty:
				state = "DEVIANT"
			case rep.Completed:
				state = "completed"
			}
			fmt.Fprintf(&b, "  replica %d: %s, nodes=%d\n", i, state, rep.RanOn)
		}
	}
	return b.String()
}
