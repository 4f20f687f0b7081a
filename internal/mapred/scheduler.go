package mapred

import (
	"clusterbft/internal/cluster"
)

// Scheduler picks which legal task a node's free slot runs next. The
// engine has already enforced the safety constraint (no two replicas of
// one sub-graph on the same node, §5.3); schedulers express policy on the
// remaining candidates. Implementations correspond to Hadoop's pluggable
// TaskScheduler (§5.3).
type Scheduler interface {
	// Pick returns the task node should run next, or nil to leave the
	// slot idle this heartbeat. bound is the engine's binding of node
	// (each SID it serves, to its replica; a crash clears it), read-only.
	// candidates is non-empty and ordered by readiness (FIFO). Both are
	// valid for the call only: the engine reuses candidates' backing
	// array for the next slot's probe, so a scheduler must copy what it
	// keeps past Pick.
	Pick(node *cluster.Node, bound map[string]int, candidates []*Task) *Task
}

// FIFOScheduler runs the oldest ready task, like Hadoop's default
// JobQueueTaskScheduler.
type FIFOScheduler struct{}

// Pick returns the first candidate.
func (FIFOScheduler) Pick(_ *cluster.Node, _ map[string]int, candidates []*Task) *Task {
	return candidates[0]
}
