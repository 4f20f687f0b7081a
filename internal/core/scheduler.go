package core

import (
	"clusterbft/internal/cluster"
	"clusterbft/internal/mapred"
)

// OverlapScheduler is ClusterBFT's resource manager policy (§4.2): honor
// the inclusion list (suspicious nodes get no work), then pick tasks so
// that a node hosts tasks from as many *different* jobs as it has
// resource units — deliberately overlapping job clusters so that a faulty
// node contaminates several clusters and the fault analyzer can intersect
// them. Among equally-overlapping candidates it prefers data-local
// splits, then FIFO order.
type OverlapScheduler struct {
	// Suspicion, when set, supplies the inclusion list.
	Suspicion *SuspicionTable

	// sids tracks which sub-graphs each node already hosts; Pick updates
	// it because the engine always starts the returned task.
	sids map[cluster.NodeID]map[string]bool
}

// NewOverlapScheduler builds the scheduler around a suspicion table
// (which may be nil).
func NewOverlapScheduler(susp *SuspicionTable) *OverlapScheduler {
	return &OverlapScheduler{
		Suspicion: susp,
		sids:      make(map[cluster.NodeID]map[string]bool),
	}
}

// Pick implements mapred.Scheduler.
func (s *OverlapScheduler) Pick(node *cluster.Node, candidates []*mapred.Task) *mapred.Task {
	if s.Suspicion != nil && s.Suspicion.Excluded(node.ID) {
		return nil // off the inclusion list (§4.2)
	}
	hosted := s.sids[node.ID]
	var best *mapred.Task
	bestScore := -1
	for _, t := range candidates {
		score := 0
		if hosted != nil && hosted[t.Job.Spec.SID] {
			// Replica affinity: a node bound to this sub-graph replica
			// keeps serving it. Without this, early replicas spread over
			// (and permanently bind, §5.3) every node, starving later
			// replicas of the same sub-graph out of legal placements.
			score += 4
		} else {
			score += 2 // new job cluster on this node: maximize overlap
		}
		if t.Home == node.ID {
			score++ // data-local
		}
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	if best != nil {
		if hosted == nil {
			hosted = make(map[string]bool)
			s.sids[node.ID] = hosted
		}
		hosted[best.Job.Spec.SID] = true
	}
	return best
}

// ForgetSID implements mapred.SIDForgetter: it drops the affinity state
// of a dead or superseded attempt on every node, so the per-node sid
// sets stay bounded across retries and repeated controller runs instead
// of pinning affinity for sub-graphs that no longer exist.
func (s *OverlapScheduler) ForgetSID(sid string) {
	for n, hosted := range s.sids {
		delete(hosted, sid)
		if len(hosted) == 0 {
			delete(s.sids, n)
		}
	}
}
