package core

import (
	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// OverlapScheduler is ClusterBFT's resource manager policy (§4.2): honor
// the inclusion list (suspicious nodes get no work), then pick tasks so
// that a node hosts tasks from as many *different* jobs as it has
// resource units — deliberately overlapping job clusters so that a faulty
// node contaminates several clusters and the fault analyzer can intersect
// them. Among equally-overlapping candidates it prefers data-local
// splits, then FIFO order. Which sub-graphs a node serves it reads from
// the engine's replica binding, and keeps no record of its own.
type OverlapScheduler struct {
	// Suspicion, when set, supplies the inclusion list.
	Suspicion *verify.SuspicionTable
}

// NewOverlapScheduler builds the scheduler around a suspicion table
// (which may be nil).
func NewOverlapScheduler(susp *verify.SuspicionTable) *OverlapScheduler {
	return &OverlapScheduler{Suspicion: susp}
}

// Pick implements mapred.Scheduler.
func (s *OverlapScheduler) Pick(node *cluster.Node, bound map[string]int, candidates []*mapred.Task) *mapred.Task {
	if s.Suspicion != nil && s.Suspicion.Excluded(node.ID) {
		return nil // off the inclusion list (§4.2)
	}
	var best *mapred.Task
	bestScore := -1
	for _, t := range candidates {
		score := 2 // new job cluster on this node: maximize overlap
		if _, ok := bound[t.Job.Spec.SID]; ok {
			// Replica affinity: a node bound to this sub-graph replica
			// keeps serving it. Without this, early replicas spread over
			// (and permanently bind, §5.3) every node, starving later
			// replicas of the same sub-graph out of legal placements.
			score = 4
		}
		if t.Home == node.ID {
			score++ // data-local
		}
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	return best
}
