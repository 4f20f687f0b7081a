// Package mapred is the MapReduce substrate ClusterBFT runs on: a
// compiler from pig logical plans to MapReduce job DAGs, and a
// deterministic virtual-time execution engine modeled on Hadoop 1.x
// (paper §5.1) — a central job tracker, per-node task trackers with task
// slots, heartbeat-driven pluggable task scheduling, a hash-partitioned
// shuffle, and byte/CPU accounting. Tasks perform the real data
// transformation (so verification digests are computed over real bytes)
// while time advances on a discrete-event clock, which keeps experiments
// reproducible and lets replicas run "in parallel" regardless of host
// CPUs.
package mapred

import (
	"fmt"

	"clusterbft/internal/cluster"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// PhysKind enumerates physical operators in map/reduce operator chains.
type PhysKind uint8

const (
	// PhysFilter drops tuples failing a predicate.
	PhysFilter PhysKind = iota + 1
	// PhysProject evaluates a GENERATE list of scalar expressions.
	PhysProject
	// PhysDigest feeds tuples through a verification-point digest.
	PhysDigest
	// PhysLimit caps the local stream at N tuples (only sound in
	// single-reduce chains, which is where the compiler places it).
	PhysLimit
	// PhysSample keeps a deterministic hash-selected fraction of
	// tuples: the same tuple stream samples identically on every
	// replica, keeping digests comparable.
	PhysSample
)

// String names the physical operator.
func (k PhysKind) String() string {
	switch k {
	case PhysFilter:
		return "filter"
	case PhysProject:
		return "project"
	case PhysDigest:
		return "digest"
	case PhysLimit:
		return "limit"
	case PhysSample:
		return "sample"
	default:
		return "phys(?)"
	}
}

// Op is one physical operator.
type Op struct {
	Kind     PhysKind
	Pred     pig.Expr      // PhysFilter
	Gens     []pig.GenItem // PhysProject (non-aggregate items only)
	Point    int           // PhysDigest: verification-point vertex ID
	Limit    int64         // PhysLimit
	Fraction float64       // PhysSample keep fraction
}

// JobInput is one input of a job: a DFS path (file or part-file tree),
// its schema, the map-side operator chain, and — for shuffle jobs — the
// key columns extracted from the post-chain tuple.
type JobInput struct {
	Path   string
	Schema *tuple.Schema
	Ops    []Op
	// KeyCols are the shuffle key column indices in the post-Ops tuple;
	// nil for map-only jobs. An empty non-nil slice means a constant key
	// (GROUP ALL / global sort).
	KeyCols []int
	// Tag distinguishes join sides (0 = left, 1 = right); -1 otherwise.
	Tag int
	// AuditIn marks an input produced by another job of the same
	// submission whose storage-boundary bytes should be digested on read
	// (see JobSpec.Audit). Raw source inputs stay unaudited: the trusted
	// store serves them identically to every replica.
	AuditIn bool
}

// Audit digest points. Plan vertex IDs are non-negative, so negative
// Point values give audit digests a namespace disjoint from every
// verification point the compiler can instrument. The Task field carries
// the job's base ID (the spec ID after the last '/') so streams from
// different jobs of one sub-graph never collide even when their task IDs
// ("m0-000", "r000") do.
const (
	// AuditTaskPoint digests a task's full output (shuffle partitions or
	// final lines); Task is "<job>/<task>". Quiz verification compares a
	// re-executed task's digests — these plus the task's in-chain
	// verification-point digests — against the primary's.
	AuditTaskPoint = -1
	// AuditIOOutPoint digests a job's output as produced, before the
	// storage layer sees it; Task is "<job>".
	AuditIOOutPoint = -2
	// AuditIOInPoint digests an input exactly as read back from storage;
	// Task is "<job>/in<i>". A mismatch against the producer's
	// AuditIOOutPoint digest convicts the storage boundary (write or
	// read tampering) without a second replica.
	AuditIOInPoint = -3
	// CkptPoint digests a checkpoint-eligible job's output as produced
	// (same bytes as AuditIOOutPoint but emitted on the full-r path);
	// Task is "<job>". The controller's checkpoint registry persists a
	// replica's output only once f+1 replicas agree on this digest, so a
	// checkpoint can never contain bytes that verification would reject.
	CkptPoint = -4
)

// ReduceKind enumerates reduce cores.
type ReduceKind uint8

const (
	// ReduceAggregate groups by key and evaluates aggregate GENERATE
	// items (GROUP ... + FOREACH ... GENERATE).
	ReduceAggregate ReduceKind = iota + 1
	// ReduceJoin emits the cross product of the two tag groups per key.
	ReduceJoin
	// ReduceDistinct emits one tuple per distinct key (key = whole
	// tuple).
	ReduceDistinct
	// ReduceSort collects everything, sorts by OrderBy (empty OrderBy
	// preserves deterministic input order, used for bare LIMIT) and
	// emits; always runs with a single reduce task.
	ReduceSort
)

// String names the reduce core.
func (k ReduceKind) String() string {
	switch k {
	case ReduceAggregate:
		return "aggregate"
	case ReduceJoin:
		return "join"
	case ReduceDistinct:
		return "distinct"
	case ReduceSort:
		return "sort"
	default:
		return "reduce(?)"
	}
}

// ReduceSpec describes the reduce side of a shuffle job.
type ReduceSpec struct {
	Kind    ReduceKind
	Gens    []pig.GenItem  // ReduceAggregate: bound GENERATE items
	OrderBy []pig.OrderKey // ReduceSort
	PostOps []Op           // applied to core output before writing
	// Combine enables the map-side combiner: map tasks fold post-digest
	// records into per-partition tables keyed by the canonical shuffle
	// key and emit one partial-state record per (partition, key), which
	// the reduce side merges. The compiler sets it only for
	// ReduceAggregate jobs whose generators are all algebraic
	// (pig.Aggregate.Algebraic) and for ReduceDistinct jobs, where the
	// merged result is byte-identical to the uncombined fold. Digesting
	// happens before combining (map chains run first), so verification
	// points observe the same stream either way.
	Combine bool
}

// JobSpec is one MapReduce job. Specs are produced by Compile with
// script-relative IDs and paths; ClusterBFT's request handler clones and
// rewrites them per replica (sub-graph id, replica index, path prefixes).
type JobSpec struct {
	ID      string // unique within one submission namespace
	SID     string // sub-graph identifier shared by all replicas (§4.1)
	Replica int    // replica index within the sub-graph
	Deps    []string
	Inputs  []JobInput
	Reduce  *ReduceSpec // nil: map-only job
	// NumReduces is the reduce-task count; all replicas of a job are
	// configured with the same value (§4.1) so task identities align.
	NumReduces int
	Output     string // DFS directory receiving part files
	OutVertex  int    // plan vertex whose output this job materializes
	Final      bool   // materializes a STORE (counts as HDFS write)
	// Audit enables the engine's audit digests for this job: per-task
	// output digests (AuditTaskPoint) and storage-boundary I/O digests
	// (AuditIOOutPoint/AuditIOInPoint). The controller sets it on
	// replicas verified by quiz or deferred policies; full-r replicas
	// run without it and stay byte-identical to historical behavior.
	Audit bool
	// Ckpt enables checkpoint capture: the engine retains the job's
	// as-produced output lines in memory and emits a CkptPoint digest at
	// completion, which lets the controller persist an f+1-agreed copy
	// for suffix-only recovery. Set only for full-r replicas of jobs
	// with in-cluster dependents when checkpointing is on.
	Ckpt bool
}

// Clone deep-copies the spec so per-replica rewrites don't alias.
// Expression trees inside Ops/Gens are shared: they are bound once at
// parse time and evaluated read-only afterwards.
func (j *JobSpec) Clone() *JobSpec {
	c := *j
	c.Deps = append([]string(nil), j.Deps...)
	c.Inputs = make([]JobInput, len(j.Inputs))
	for i, in := range j.Inputs {
		ci := in
		ci.Ops = append([]Op(nil), in.Ops...)
		if in.KeyCols != nil { // preserve nil (map-only) vs empty (constant key)
			ci.KeyCols = make([]int, len(in.KeyCols))
			copy(ci.KeyCols, in.KeyCols)
		}
		c.Inputs[i] = ci
	}
	if j.Reduce != nil {
		r := *j.Reduce
		r.Gens = append([]pig.GenItem(nil), j.Reduce.Gens...)
		r.OrderBy = append([]pig.OrderKey(nil), j.Reduce.OrderBy...)
		r.PostOps = append([]Op(nil), j.Reduce.PostOps...)
		c.Reduce = &r
	}
	return &c
}

// Points returns the verification-point vertex IDs instrumented anywhere
// in the job, in first-appearance order.
func (j *JobSpec) Points() []int {
	seen := make(map[int]bool)
	var out []int
	add := func(ops []Op) {
		for _, op := range ops {
			if op.Kind == PhysDigest && !seen[op.Point] {
				seen[op.Point] = true
				out = append(out, op.Point)
			}
		}
	}
	for _, in := range j.Inputs {
		add(in.Ops)
	}
	if j.Reduce != nil {
		add(j.Reduce.PostOps)
	}
	return out
}

// String renders a short description.
func (j *JobSpec) String() string {
	kind := "map-only"
	if j.Reduce != nil {
		kind = j.Reduce.Kind.String()
	}
	return fmt.Sprintf("%s[%s->%s %s r=%d]", j.ID, j.SID, j.Output, kind, j.NumReduces)
}

// TaskKind separates map and reduce tasks.
type TaskKind uint8

// Task kinds.
const (
	MapTask TaskKind = iota + 1
	ReduceTask
)

// String names the task kind.
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// Task is one schedulable unit: a map task over one input split or a
// reduce task over one partition. Its job owns it (JobState.tasks), and
// every attempt of it — original, backup, rerun after a crash, quiz —
// runs the same *Task.
type Task struct {
	Job      *JobState
	Kind     TaskKind
	InputIdx int // map: which JobInput
	Index    int // map: split index within the input; reduce: partition

	// Home is the node that "hosts" the task's input split; schedulers
	// may prefer local placement.
	Home cluster.NodeID

	id  string // formatted once, by newTask
	ord int    // position in Job.tasks; map tasks come first, so it indexes mapOutcomes

	// Attempt state, touched only on the simulation goroutine.
	running    []*runningTask // live attempts
	committed  bool           // an attempt's result committed
	speculated int            // backups spawned, not yet invalidated by loss
}

// newTask appends the job's next task in ordinal order — map tasks by
// (input, split), then reduce tasks by partition — and formats its
// identity, the one place a task ID is made.
func (j *JobState) newTask(kind TaskKind, input, index int) *Task {
	t := &Task{Job: j, Kind: kind, InputIdx: input, Index: index, ord: len(j.tasks)}
	if kind == MapTask {
		t.id = fmt.Sprintf("m%d-%03d", input, index)
	} else {
		t.id = fmt.Sprintf("r%03d", index)
	}
	j.tasks = append(j.tasks, t)
	return t
}

// ID returns the task identity, stable across replicas of the same job:
// "m<input>-<split>" or "r<partition>".
func (t *Task) ID() string { return t.id }

// String renders "jobid/taskid".
func (t *Task) String() string {
	return t.Job.Spec.ID + "/" + t.ID()
}
