package mapred

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
	"clusterbft/internal/pool"
	"clusterbft/internal/tuple"
	"clusterbft/internal/vtime"
)

// CostModel sets the virtual-time costs of engine operations, in
// microseconds. Latency results are reported in this virtual time, which
// makes runs deterministic and lets replicas overlap regardless of how
// many host CPUs the simulation itself gets.
type CostModel struct {
	TaskStartupUs   int64 // task-tracker JVM spin-up per task
	MapRecordUs     int64 // per input record in a map task
	ReduceRecordUs  int64 // per record in or out of a reduce task
	ShuffleRecordUs int64 // per record written to / read from shuffle
	CombineRecordUs int64 // per record folded into a map-side combiner
	DigestRecordUs  int64 // per record folded into a verification digest
	HeartbeatUs     int64 // task-tracker heartbeat interval (§4.2 step 1)
	SplitRecords    int   // records per map input split
}

// DefaultCostModel returns costs loosely calibrated to Hadoop 1.x: long
// task startup, cheap per-record processing, digesting noticeably cheaper
// than processing (the paper measures <10% overhead for one verification
// point, §6.1).
func DefaultCostModel() CostModel {
	return CostModel{
		TaskStartupUs:   800_000,
		MapRecordUs:     4,
		ReduceRecordUs:  6,
		ShuffleRecordUs: 1,
		CombineRecordUs: 1,
		DigestRecordUs:  1,
		HeartbeatUs:     200_000,
		SplitRecords:    10_000,
	}
}

// Metrics accumulates the resource counters Table 3 reports. Fields are
// plain int64s (goldens pin the %+v) written with atomic adds, so
// InstrumentMetrics' views can be scraped while the simulation runs.
type Metrics struct {
	CPUTimeUs         int64 // summed task durations
	HDFSBytesRead     int64 // job input reads
	HDFSBytesWritten  int64 // job output writes (intermediate and final)
	LocalBytesRead    int64 // shuffle reads
	LocalBytesWritten int64 // shuffle writes
	MapTasks          int64
	ReduceTasks       int64
	RecordsIn         int64
	RecordsOut        int64
	ShuffleRecords    int64 // records crossing the shuffle (post-combiner)
	CombinedRecords   int64 // records folded into map-side combiners
	DigestRecords     int64
	JobsCompleted     int64
	TasksHung         int64 // omission faults observed
	SpeculativeTasks  int64 // backup copies launched
}

// TaskFault is one fault verdict for a dispatched task attempt, drawn by
// the engine's TaskHook before the body runs. The zero value is honest
// execution.
type TaskFault struct {
	// SlowFactor > 1 multiplies the attempt's virtual duration
	// (straggler). Values <= 1 are ignored.
	SlowFactor float64
	// Hang withholds the attempt's result forever (omission): the slot
	// stays occupied and no completion event fires.
	Hang bool
	// Corrupt, when non-nil, tampers every value of every input tuple of
	// a map task (commission): the task reads what it returns in v's place.
	// cat(s, suffix) is s+suffix, cut from the task's arena. Ignored for
	// reduce tasks, matching the node adversary's behaviour.
	Corrupt func(v tuple.Value, cat func(s, suffix string) string) tuple.Value
}

// JobState tracks one submitted job through execution.
type JobState struct {
	Spec *JobSpec
	// Nodes is the job cluster: every node that was assigned any task of
	// this job (including hung ones); input to fault isolation (§4.3).
	Nodes map[cluster.NodeID]bool

	SubmitTime int64
	DoneTime   int64
	Done       bool
	Killed     bool

	depsLeft   int
	dependents []*JobState
	runnable   bool

	splits      [][][2]int    // per input: line ranges
	inputSrcs   []*dfs.Reader // per input: streaming view opened at runnable time
	tasks       []*Task       // in ordinal order: maps by (input, split), then reduces
	mapOutcomes []*mapOutcome // indexed by map task ordinal
	mapsTotal   int
	mapsDone    int
	redsTotal   int
	redsDone    int

	// auditParts retains each committed part's produced lines (before any
	// write hook) when Spec.Audit is set, so completeJob can digest the
	// job's output as produced for AuditIOOutPoint.
	auditParts map[string][]string

	maxDur map[TaskKind]int64 // longest committed duration per kind

	hasDependents bool // another submitted job consumes this job's output

	runnableTime int64 // when the job's map tasks entered the ready queue
	mapsDoneTime int64 // when the last map task committed

	// Per-(job, stage) committed-duration histograms, registered as
	// labeled families {job, stage} when the engine has a registry; nil
	// (free) otherwise.
	obsMapDur *obs.Histogram
	obsRedDur *obs.Histogram
}

type runningTask struct {
	task      *Task
	node      cluster.NodeID
	start     int64
	wallStart int64 // wall-clock dispatch time; 0 unless tracing with a wall clock
	hung      bool
	dead      bool
}

// Latency returns the job's virtual makespan; valid once Done.
func (j *JobState) Latency() int64 { return j.DoneTime - j.SubmitTime }

// ProducedLines returns the job's output lines exactly as its tasks
// produced them (before any storage write hook), concatenated in sorted
// part-name order — the stream the AuditIOOutPoint and CkptPoint
// digests cover. Nil unless the job ran with Audit or Ckpt set.
func (j *JobState) ProducedLines() []string {
	if j.auditParts == nil {
		return nil
	}
	parts := make([]string, 0, len(j.auditParts))
	for p := range j.auditParts {
		parts = append(parts, p)
	}
	sort.Strings(parts)
	var lines []string
	for _, p := range parts {
		lines = append(lines, j.auditParts[p]...)
	}
	return lines
}

// HasDependents reports whether another submitted job consumes this
// job's output. With the controller's rewriting, dependents are always
// same-replica consumers, so corruption of such an output is detectable
// by digest comparison — chaos uses this to pick sound write-mangle
// targets (tampering an output nobody re-reads within the replica would
// land after the digests were taken, which trusted storage rules out).
func (j *JobState) HasDependents() bool { return j.hasDependents }

// Engine is the deterministic virtual-time MapReduce runtime: a job
// tracker (queue + dependency tracking), task trackers (node slots
// claimed via heartbeat ticks), and the execution of real map/reduce
// work. All engine state mutation happens on the single simulation
// goroutine; the heavy data work of task bodies is computed eagerly on
// a bounded worker pool the moment a task is dispatched, and its
// effects (metrics, outputs, digest reports) commit in virtual-time
// order on the simulation goroutine, keeping results byte-identical at
// every pool size.
type Engine struct {
	// Queue is the simulation clock: Now reads it, After schedules on it.
	vtime.Queue

	FS      *dfs.FS
	Cluster *cluster.Cluster
	Sched   Scheduler
	Cost    CostModel
	Metrics Metrics

	// QuizTasks counts tasks re-executed through Requiz. It lives outside
	// Metrics so the Table 3 snapshot (whose %+v rendering golden
	// fixtures pin) keeps its shape; quiz CPU still folds into
	// Metrics.CPUTimeUs.
	QuizTasks int64

	// Workers bounds how many task bodies compute concurrently on the
	// host; 0 means GOMAXPROCS, 1 reproduces fully serial execution.
	// Changing it after the first task dispatched has no effect.
	Workers int

	// Trace, when set, records job, stage, and task spans onto the
	// virtual timeline. Nil (the default) disables tracing; the
	// instrumentation is nil-safe and allocation-free when disabled.
	Trace *obs.Tracer

	// Board, when set, mirrors live job/task state for the introspection
	// server's /jobs endpoints. Nil (the default) is free: every hook is
	// a nil-safe no-op.
	Board *obs.JobsBoard

	// Ledger attributes every charged CPU microsecond to a cost bucket
	// (committed / replica_waste / verify / recovery_rerun). Always
	// present: NewEngine creates one, and the invariant that its buckets
	// sum to Metrics.CPUTimeUs at quiesce is pinned by tests.
	Ledger *CostLedger

	// TaskHook, when set, is consulted on the simulation goroutine at
	// every task dispatch, after the node adversary's own draw, and may
	// overlay additional faults on the attempt (chaos injection). Nil is
	// free; the hook must be deterministic given (node, task) because it
	// runs in dispatch order.
	TaskHook func(node cluster.NodeID, t *Task) TaskFault

	// DigestChunk is the paper's d: records per digest chunk (§6.4);
	// <= 0 means one digest per task stream.
	DigestChunk int
	// DigestSink receives verification digests as tasks complete.
	DigestSink func(digest.Report)
	// OnJobDone fires when a job's last task completes.
	OnJobDone func(*JobState)

	// Speculation enables Hadoop-style backup tasks: an attempt running
	// specLagFactor times longer than its comparator (see specSweep)
	// gets another copy on another node; the first completion wins.
	// Backups rescue replicas from stragglers and from omission-hung
	// tasks without waiting for the verifier timeout.
	Speculation bool
	// SpecQuantile is the comparator's quantile. NewEngine sets 0.95
	// and nothing in this module assigns it; it is still an exported
	// field only because bench/workloads.go assigns it (the same 0.95)
	// and bench/ is frozen outside benchmark PRs — the next one should
	// drop that line and make this a constant.
	SpecQuantile float64

	jobs       map[string]*JobState
	jobOrder   []string
	byOutput   map[string]*JobState
	dead       map[cluster.NodeID]bool
	ticks      int
	specArmed  bool
	ready      []*Task
	cands      []*Task // legalTasks' result, its backing array reused by every probe
	freeSlots  map[cluster.NodeID]int
	sidBinding map[cluster.NodeID]map[string]int
	tickArmed  bool

	// specHist holds committed-duration histograms per (base job ID,
	// task kind), feeding the speculation trigger. Cross-replica by
	// construction: replicas of one cluster share base IDs.
	specHist map[specKey]*obs.Histogram

	// Fault is the storage failure that ended Run, if one did: a sealed
	// block that cannot be read back is no node's doing, nor a retry's to fix.
	Fault *dfs.BlockError

	workers *pool.Pool
	// scratch is one task scratch per worker slot, nil until a body first
	// runs there; only the body holding the slot touches its element.
	scratch []*taskScratch
	pending []pendingBody

	// Registry-backed instruments, set by InstrumentMetrics; all nil (and
	// therefore free) when no registry is attached.
	obsReg          *obs.Registry
	obsTask         taskObs
	obsCPUCommitted *obs.Counter   // CPU of attempts whose result committed
	obsCPULost      *obs.Counter   // CPU of hung, raced, and killed attempts
	obsTaskDur      *obs.Histogram // committed task durations
	obsDigestRecs   *obs.Counter   // records folded into digest writers
}

// pendingBody is a task body dispatched to the worker pool but not yet
// joined back into the simulation: settle waits on fut, charges the
// duration and schedules the commit event.
type pendingBody struct {
	rt   *runningTask
	fut  *pool.Future[bodyResult]
	buf  *digest.Buffer
	slow float64
	hung bool
}

// bodyResult is what a task body computation yields: the attempt's
// virtual duration and a commit closure applying its effects. The body
// runs off the simulation goroutine and only reads state fixed before
// dispatch; commit runs on the simulation goroutine at completion time.
type bodyResult struct {
	dur    int64
	commit func()
}

// NewEngine builds an engine over the given storage and worker cluster.
// sched may be nil (FIFO).
func NewEngine(fs *dfs.FS, cl *cluster.Cluster, sched Scheduler, cost CostModel) *Engine {
	if sched == nil {
		sched = FIFOScheduler{}
	}
	e := &Engine{
		FS:           fs,
		Cluster:      cl,
		Sched:        sched,
		Cost:         cost,
		Ledger:       NewCostLedger(),
		SpecQuantile: 0.95,
		specHist:     make(map[specKey]*obs.Histogram),
		jobs:         make(map[string]*JobState),
		byOutput:     make(map[string]*JobState),
		dead:         make(map[cluster.NodeID]bool),
		freeSlots:    make(map[cluster.NodeID]int),
		sidBinding:   make(map[cluster.NodeID]map[string]int),
	}
	for _, n := range cl.Nodes() {
		e.freeSlots[n.ID] = n.Slots
	}
	return e
}

// InstrumentMetrics registers the engine into reg. Every Metrics field
// gets a live Func view under mapred.metrics.* — the struct stays the
// canonical Table 3 snapshot (golden fixtures pin its %+v), the registry
// is the uniform read path. On top of the compatibility view come
// instruments the struct deliberately does not carry: the committed/lost
// CPU split (CPUTimeUs itself includes losing attempts, a pinned
// semantic), a committed-task duration histogram, data-plane record
// counters threaded into task bodies, digest record counts, and the
// engine's DFS counters. The -http plane reads the views from another
// goroutine mid-run, hence the atomic loads.
func (e *Engine) InstrumentMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.obsReg = reg
	m := &e.Metrics
	reg.Func("mapred.metrics.cpu_time_us", func() int64 { return atomic.LoadInt64(&m.CPUTimeUs) })
	reg.Func("mapred.metrics.hdfs_bytes_read", func() int64 { return atomic.LoadInt64(&m.HDFSBytesRead) })
	reg.Func("mapred.metrics.hdfs_bytes_written", func() int64 { return atomic.LoadInt64(&m.HDFSBytesWritten) })
	reg.Func("mapred.metrics.local_bytes_read", func() int64 { return atomic.LoadInt64(&m.LocalBytesRead) })
	reg.Func("mapred.metrics.local_bytes_written", func() int64 { return atomic.LoadInt64(&m.LocalBytesWritten) })
	reg.Func("mapred.metrics.map_tasks", func() int64 { return atomic.LoadInt64(&m.MapTasks) })
	reg.Func("mapred.metrics.reduce_tasks", func() int64 { return atomic.LoadInt64(&m.ReduceTasks) })
	reg.Func("mapred.metrics.records_in", func() int64 { return atomic.LoadInt64(&m.RecordsIn) })
	reg.Func("mapred.metrics.records_out", func() int64 { return atomic.LoadInt64(&m.RecordsOut) })
	reg.Func("mapred.metrics.shuffle_records", func() int64 { return atomic.LoadInt64(&m.ShuffleRecords) })
	reg.Func("mapred.metrics.combined_records", func() int64 { return atomic.LoadInt64(&m.CombinedRecords) })
	reg.Func("mapred.metrics.digest_records", func() int64 { return atomic.LoadInt64(&m.DigestRecords) })
	reg.Func("mapred.metrics.jobs_completed", func() int64 { return atomic.LoadInt64(&m.JobsCompleted) })
	reg.Func("mapred.metrics.tasks_hung", func() int64 { return atomic.LoadInt64(&m.TasksHung) })
	reg.Func("mapred.metrics.speculative_tasks", func() int64 { return atomic.LoadInt64(&m.SpeculativeTasks) })
	e.obsCPUCommitted = reg.Counter("mapred.cpu_committed_us")
	e.obsCPULost = reg.Counter("mapred.cpu_lost_us")
	e.obsTaskDur = reg.Histogram("mapred.task_duration_us", obs.DurationBucketsUs)
	led := e.Ledger
	reg.Help("cost.cpu_us", "CPU microseconds attributed by the cost ledger; buckets sum to mapred.metrics.cpu_time_us at quiesce")
	reg.With("bucket", "committed").Func("cost.cpu_us", func() int64 { return led.Buckets().CommittedUs })
	reg.With("bucket", "replica_waste").Func("cost.cpu_us", func() int64 { return led.Buckets().ReplicaWasteUs })
	reg.With("bucket", "verify", "mode", CostModeFull).Func("cost.cpu_us", func() int64 { return led.Buckets().VerifyFullUs })
	reg.With("bucket", "verify", "mode", CostModeQuiz).Func("cost.cpu_us", func() int64 { return led.Buckets().VerifyQuizUs })
	reg.With("bucket", "verify", "mode", CostModeDeferred).Func("cost.cpu_us", func() int64 { return led.Buckets().VerifyDeferredUs })
	reg.With("bucket", "recovery_rerun").Func("cost.cpu_us", func() int64 { return led.Buckets().RecoveryRerunUs })
	reg.With("bucket", "in_flight").Func("cost.cpu_us", func() int64 { return atomic.LoadInt64(&m.CPUTimeUs) - led.TotalUs() })
	e.obsDigestRecs = reg.Counter("digest.records")
	e.obsTask = taskObs{
		mapRecords:     reg.Counter("mapred.task.map_records"),
		reduceRecords:  reg.Counter("mapred.task.reduce_records"),
		shuffleRecords: reg.Counter("mapred.task.shuffle_records"),
		combineRecords: reg.Counter("mapred.task.combine_records"),
		mergedRuns:     reg.Counter("mapred.task.merged_runs"),
		outRecords:     reg.Counter("mapred.task.out_records"),
	}
	e.FS.Instrument(reg)
	if e.workers != nil {
		e.workers.Instrument(reg)
	}
}

// Registry returns the metrics registry attached via InstrumentMetrics;
// nil when metrics are off. Components layered over the engine (the
// controller's checkpoint counters) register through it so everything
// lands in one exposition.
func (e *Engine) Registry() *obs.Registry { return e.obsReg }

// Job returns the state of a submitted job, or nil.
func (e *Engine) Job(id string) *JobState { return e.jobs[id] }

// JobByOutput returns the job writing under the output directory dir, or
// nil. Chaos injection uses it to map DFS paths back to jobs.
func (e *Engine) JobByOutput(dir string) *JobState { return e.byOutput[dir] }

// Submit enqueues a job. Dependencies must have been submitted earlier
// (compiler output order satisfies this). A duplicate ID, an unsubmitted
// dependency, an unknown reduce kind, a reduce into no partitions or a
// negative shuffle key column is an error, and a spec that fails leaves
// the engine as it was: nothing is registered before everything is
// checked.
func (e *Engine) Submit(spec *JobSpec) (*JobState, error) {
	if _, ok := e.jobs[spec.ID]; ok {
		return nil, fmt.Errorf("mapred: duplicate job id %q", spec.ID)
	}
	for _, dep := range spec.Deps {
		if e.jobs[dep] == nil {
			return nil, fmt.Errorf("mapred: job %q depends on unsubmitted %q", spec.ID, dep)
		}
	}
	if r := spec.Reduce; r != nil {
		switch r.Kind {
		case ReduceAggregate, ReduceJoin, ReduceDistinct, ReduceSort:
		default:
			return nil, fmt.Errorf("mapred: job %q has unknown reduce kind %d", spec.ID, r.Kind)
		}
		if spec.NumReduces < 1 {
			return nil, fmt.Errorf("mapred: job %q reduces into %d partitions, want >= 1", spec.ID, spec.NumReduces)
		}
	}
	for i := range spec.Inputs {
		if kc := spec.Inputs[i].KeyCols; len(kc) > 0 && slices.Min(kc) < 0 {
			return nil, fmt.Errorf("mapred: job %q input %d has a negative shuffle key column: %v", spec.ID, i, kc)
		}
	}
	js := &JobState{
		Spec:       spec,
		Nodes:      make(map[cluster.NodeID]bool),
		SubmitTime: e.Now(),
		maxDur:     make(map[TaskKind]int64),
	}
	e.jobs[spec.ID] = js
	e.jobOrder = append(e.jobOrder, spec.ID)
	e.byOutput[spec.Output] = js
	for _, dep := range spec.Deps {
		d := e.jobs[dep]
		d.hasDependents = true
		if !d.Done {
			js.depsLeft++
			d.dependents = append(d.dependents, js)
		}
	}
	e.Board.JobSubmitted(spec.ID, spec.SID, spec.Replica, e.Now())
	if js.depsLeft == 0 {
		e.makeRunnable(js)
	}
	return js, nil
}

// makeRunnable computes splits and enqueues the job's map tasks.
func (e *Engine) makeRunnable(js *JobState) {
	if js.runnable || js.Killed {
		return
	}
	js.runnable = true
	js.runnableTime = e.Now()
	js.splits = make([][][2]int, len(js.Spec.Inputs))
	js.inputSrcs = make([]*dfs.Reader, len(js.Spec.Inputs))
	for i, in := range js.Spec.Inputs {
		src := e.openInput(in.Path)
		js.inputSrcs[i] = src
		if js.Spec.Audit && in.AuditIn && e.DigestSink != nil {
			// Digest the input exactly as read back — the flat
			// concatenation the reader serves, after any storage-layer
			// read transformation — so a mismatch against the producer's
			// as-produced digest convicts the storage boundary.
			lines := src.ReadRange(0, src.NumRecords())
			e.DigestSink(auditReport(js.Spec, AuditIOInPoint,
				fmt.Sprintf("%s/in%d", baseID(js.Spec.ID), i),
				int64(len(lines)), digest.OfLines(lines)))
		}
		js.splits[i] = splitLines(src.NumRecords(), e.Cost.SplitRecords)
		for s := range js.splits[i] {
			t := js.newTask(MapTask, i, s)
			t.Home = e.splitHome(in.Path, s)
			e.ready = append(e.ready, t)
		}
	}
	js.mapsTotal = len(js.tasks)
	js.mapOutcomes = make([]*mapOutcome, js.mapsTotal)
	e.Board.JobStages(js.Spec.ID, js.mapsTotal, -1)
	if e.obsReg != nil {
		js.obsMapDur = e.obsReg.With("job", baseID(js.Spec.ID), "stage", "map").
			Histogram("mapred.stage_task_duration_us", obs.DurationBucketsUs)
	}
	e.armTick()
}

// openInput opens a streaming reader over an input file or part-file
// tree; missing paths read as empty (an upstream job may legitimately
// have produced no records). The reader snapshots the input's blocks
// without decoding them — map task bodies decode only their own split's
// blocks, off the simulation goroutine. Under a ReadHook the open reads
// every block, and one that cannot be read back ends the run (Run).
func (e *Engine) openInput(path string) *dfs.Reader {
	var r *dfs.Reader
	var err error
	if e.FS.Exists(path) {
		r, err = e.FS.OpenReader(path)
	} else {
		r, err = e.FS.OpenTreeReader(path)
	}
	if err != nil {
		var bad *dfs.BlockError
		if errors.As(err, &bad) {
			panic(bad)
		}
		return &dfs.Reader{}
	}
	return r
}

// splitHome deterministically assigns a "hosting" node for locality-aware
// schedulers by hashing (path, split) with FNV-1a. Unsigned arithmetic
// throughout: the previous hand-rolled h*31 hash negated its sum, which
// overflows for math.MinInt and left the distribution weak.
func (e *Engine) splitHome(path string, split int) cluster.NodeID {
	nodes := e.Cluster.Nodes()
	if len(nodes) == 0 {
		return ""
	}
	h := fnv.New64a()
	h.Write([]byte(path))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(split))
	h.Write(b[:])
	return nodes[h.Sum64()%uint64(len(nodes))].ID
}

// armTick schedules the next heartbeat scheduling round if needed.
func (e *Engine) armTick() {
	if e.tickArmed || len(e.ready) == 0 {
		return
	}
	e.tickArmed = true
	e.After(e.Cost.HeartbeatUs, func() {
		e.tickArmed = false
		if e.tick() {
			e.armTick()
		}
	})
}

// tick is one heartbeat round: every node with free slots asks the
// scheduler for work (§4.2 steps 1–5). The starting node rotates across
// ticks — heartbeats arrive in no fixed order in Hadoop, and a fixed
// order would starve high-numbered nodes on small workloads — while
// keeping runs deterministic. It reports whether another heartbeat is
// worthwhile: when no free slot saw a single legal candidate, only an
// engine event (completion, kill, submit, speculation) can change
// schedulability, and every one of those re-arms the tick — so
// re-arming here would spin the heartbeat forever on a permanently
// unplaceable task (e.g. a backup whose only legal node hosts the hung
// original).
func (e *Engine) tick() bool {
	nodes := e.Cluster.Nodes()
	if len(nodes) == 0 {
		return false
	}
	e.ticks++
	start := e.ticks % len(nodes)
	sawWork := false
	for i := range nodes {
		node := nodes[(start+i)%len(nodes)]
		if e.dead[node.ID] {
			continue // crashed: no heartbeat, no slots
		}
		for e.freeSlots[node.ID] > 0 {
			cands := e.legalTasks(node)
			if len(cands) == 0 {
				break
			}
			sawWork = true
			t := e.Sched.Pick(node, cands)
			if t == nil {
				break
			}
			e.startTask(node, t)
		}
	}
	e.settle()
	return sawWork
}

// legalTasks filters the ready queue to tasks allowed on node: tasks of a
// replicated job (non-empty SID) may only land on a node bound to the
// same replica of that sub-graph, never a different one (§5.3). The
// result lives in e.cands and is valid until the next probe.
func (e *Engine) legalTasks(node *cluster.Node) []*Task {
	out := e.cands[:0]
	for _, t := range e.ready {
		if t.committed {
			continue // a backup whose original already finished
		}
		sid := t.Job.Spec.SID
		if sid != "" {
			if bound, ok := e.sidBinding[node.ID][sid]; ok && bound != t.Job.Spec.Replica {
				continue
			}
		}
		// A backup copy must not share a node with a live attempt.
		dup := false
		for _, rt := range t.running {
			if rt.node == node.ID {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, t)
	}
	e.cands = out
	return out
}

func (e *Engine) removeReady(t *Task) {
	for i, r := range e.ready {
		if r == t {
			e.ready = append(e.ready[:i], e.ready[i+1:]...)
			return
		}
	}
}

// bodyPool lazily builds the worker pool computing task bodies.
func (e *Engine) bodyPool() *pool.Pool {
	if e.workers == nil {
		e.workers = pool.New(e.Workers)
		e.workers.Instrument(e.obsReg)
		e.scratch = make([]*taskScratch, e.workers.Size())
	}
	return e.workers
}

// borrow takes the scratch of the slot a body holds. The body puts it
// back (e.scratch[slot] = sc) once it is done with it: one that panics
// never does, and the slot's next task starts on a new one.
func (e *Engine) borrow(slot int) *taskScratch {
	sc := e.scratch[slot]
	e.scratch[slot] = nil
	if sc == nil {
		sc = new(taskScratch)
	}
	return sc
}

// startTask claims a slot for t on node and dispatches its body to the
// worker pool. Bookkeeping (slots, bindings, attempt lists, adversary
// draw) happens here on the simulation goroutine; the data work runs
// concurrently and is joined by settle at the end of the tick.
func (e *Engine) startTask(node *cluster.Node, t *Task) {
	e.removeReady(t)
	e.freeSlots[node.ID]--
	js := t.Job
	js.Nodes[node.ID] = true
	if sid := js.Spec.SID; sid != "" {
		if e.sidBinding[node.ID] == nil {
			e.sidBinding[node.ID] = make(map[string]int)
		}
		e.sidBinding[node.ID][sid] = js.Spec.Replica
	}
	rt := &runningTask{task: t, node: node.ID, start: e.Now(), wallStart: e.Trace.WallNow()}
	t.running = append(t.running, rt)
	e.Board.TaskStarted(js.Spec.ID)

	// Byzantine behaviour draw (§2.3). Drawn here, not in the body, so
	// the adversary's seeded RNG advances in deterministic dispatch
	// order.
	var corrupt corruptFn
	hung := false
	slow := 1.0
	if adv := node.Adversary; adv != nil && adv.Fire() {
		switch adv.Kind {
		case cluster.FaultCommission:
			corrupt = cluster.Corrupt
		case cluster.FaultOmission:
			hung = true
		case cluster.FaultSlow:
			slow = adv.Slowdown()
		}
	}
	// Chaos overlay: injected faults compose with (and never mask) the
	// node adversary's draw.
	if e.TaskHook != nil {
		f := e.TaskHook(node.ID, t)
		if f.Corrupt != nil && corrupt == nil {
			corrupt = f.Corrupt
		}
		if f.Hang {
			hung = true
		}
		if f.SlowFactor > slow {
			slow = f.SlowFactor
		}
	}

	// Digest reports are buffered per attempt and replayed at commit
	// time, never emitted straight into the sink from the body: the
	// body runs off the simulation goroutine and attempts may lose.
	buf := &digest.Buffer{}
	chunk := e.DigestChunk
	digestRecs := e.obsDigestRecs
	df := func(point int) *digest.Writer {
		key := digest.Key{SID: js.Spec.SID, Point: point, Task: t.ID()}
		w := digest.NewWriter(key, js.Spec.Replica, chunk, buf.Add)
		w.Obs = digestRecs
		return w
	}

	var body func(slot int) bodyResult
	if t.Kind == MapTask {
		body = e.mapBody(t, df, buf.Add, corrupt, false)
	} else {
		body = e.reduceBody(t, df, buf.Add, false)
	}
	e.pending = append(e.pending, pendingBody{
		rt:   rt,
		fut:  pool.Go(e.bodyPool(), body),
		buf:  buf,
		slow: slow,
		hung: hung,
	})
	e.armSpec()
}

// settle joins every task body dispatched this tick, in dispatch order:
// charge CPU, then schedule the completion event that commits the
// attempt's effects. All bodies of one tick start at the same virtual
// instant, so joining after the assignment loop loses no virtual time
// while letting the bodies compute concurrently on the pool.
func (e *Engine) settle() {
	pend := e.pending
	e.pending = nil
	for _, p := range pend {
		res, err := p.fut.Wait()
		if e.Fault != nil || errors.As(err, &e.Fault) {
			continue // the run is over; the other bodies are only waited for
		}
		if err != nil {
			// A body that panicked has no result to give: an omission.
			p.hung = true
			e.Trace.Instant("fault", string(p.rt.node), p.rt.task.ID()+" panicked: "+err.Error(), e.Now(),
				obs.A("job", p.rt.task.Job.Spec.ID))
		}
		dur := res.dur
		if p.slow > 1 {
			dur = int64(float64(dur) * p.slow)
		}
		atomic.AddInt64(&e.Metrics.CPUTimeUs, dur)
		if p.hung {
			p.rt.hung = true
			atomic.AddInt64(&e.Metrics.TasksHung, 1)
			e.resolve(p.rt, dur, attemptHung)
			e.Trace.Instant("fault", string(p.rt.node), p.rt.task.ID()+" hung", e.Now(),
				obs.A("job", p.rt.task.Job.Spec.ID))
			continue // no completion event: the node withholds the result
		}
		e.scheduleCommit(p, dur, res.commit)
	}
}

// scheduleCommit arms the completion event for one live attempt: at
// start+dur the attempt's effects commit, unless the attempt died or a
// sibling won the race in the meantime.
func (e *Engine) scheduleCommit(p pendingBody, dur int64, commit func()) {
	rt := p.rt
	t := rt.task
	js := t.Job
	e.After(dur, func() {
		if rt.dead {
			e.resolve(rt, dur, attemptLost) // torn down before its completion fired
			return
		}
		t.unlink(rt)
		e.releaseSlot(rt.node)
		if js.Killed || t.committed {
			e.resolve(rt, dur, attemptLost) // job gone, or a backup raced us and won
			e.armTick()
			return
		}
		t.committed = true
		e.resolve(rt, dur, attemptCommitted)
		if e.Speculation { // the histogram's only reader is specSweep
			k := specKey{baseID(js.Spec.ID), t.Kind}
			h := e.specHist[k]
			if h == nil {
				h = obs.NewHistogram(obs.DurationBucketsUs)
				e.specHist[k] = h
			}
			h.Observe(dur)
		}
		if e.Trace != nil {
			e.Trace.Emit(obs.Span{
				Cat: "task", Track: string(rt.node), Name: t.ID(),
				VStart: rt.start, VEnd: e.Now(), WallStart: rt.wallStart,
				Attrs: []obs.Attr{obs.A("job", js.Spec.ID), obs.A("kind", t.Kind.String())},
			})
		}
		// A queued backup copy that never started is dead weight now; a
		// committed task must not linger on the ready queue (it would
		// never be legal again, and would arm heartbeats forever).
		e.removeReady(t)
		if dur > js.maxDur[t.Kind] {
			js.maxDur[t.Kind] = dur
		}
		// The first commit of a kind gives laggard siblings a baseline to
		// be measured against; wake the sweep for them.
		e.armSpec()
		// Tear down losing sibling attempts (hung originals included).
		for _, other := range t.running {
			other.dead = true
			e.releaseSlot(other.node)
		}
		t.running = nil
		// Digests first: when commit completes the job, the verifier
		// must already hold this task's reports, in emission order.
		p.buf.Replay(e.DigestSink)
		commit()
		e.armTick()
	})
}

// attemptOutcome is how one dispatched attempt's charged CPU resolved.
type attemptOutcome uint8

const (
	attemptCommitted attemptOutcome = iota // its result is the task's result
	attemptLost                            // raced, killed or torn down: the result was discarded
	attemptHung                            // the node withholds the result: no completion ever fires
)

// resolve settles the dur microseconds an attempt was charged at
// dispatch into one side of every committed/lost account — the
// registry's CPU split and duration histograms, the cost ledger, the
// jobs board. It is their only writer, so they cannot disagree; with no
// registry and no board attached it costs the ledger update alone.
func (e *Engine) resolve(rt *runningTask, dur int64, outcome attemptOutcome) {
	t, spec := rt.task, rt.task.Job.Spec
	if outcome != attemptCommitted {
		e.obsCPULost.Add(dur)
		e.Ledger.ResolveLost(spec.SID, spec.Replica, dur)
		if outcome == attemptHung {
			e.Board.TaskHung(spec.ID)
		} else {
			e.Board.TaskLost(spec.ID)
		}
		return
	}
	e.obsCPUCommitted.Add(dur)
	e.obsTaskDur.Observe(dur)
	e.Ledger.ResolveCommitted(spec.SID, spec.Replica, dur)
	e.Board.TaskCommitted(spec.ID, t.Kind.String(), t.ID(), dur)
	if t.Kind == MapTask {
		t.Job.obsMapDur.Observe(dur)
	} else {
		t.Job.obsRedDur.Observe(dur)
	}
}

// unlink removes one attempt from the task's live list.
func (t *Task) unlink(rt *runningTask) {
	if i := slices.Index(t.running, rt); i >= 0 {
		t.running = slices.Delete(t.running, i, i+1)
	}
}

// armSpec schedules the next speculative-execution sweep.
func (e *Engine) armSpec() {
	if !e.Speculation || e.specArmed {
		return
	}
	e.specArmed = true
	e.After(specIntervalUs, func() {
		e.specArmed = false
		if e.specSweep() {
			e.armSpec()
		}
	})
}

// specSweep launches backups for laggard tasks and reports whether a
// future sweep could still act. Only a task whose spawned backups have
// all been placed, with fewer than maxBackups of them and a comparator
// to be measured against, can benefit from the clock advancing — it
// either gets its backup now or on a later sweep. Everything else (hung
// attempts with backups pending, tasks with no comparator) changes
// state only through engine events, and those re-arm the sweep;
// re-arming on "anything still running" would spin the event loop
// forever when a hung task's backup can never be placed. Iteration
// follows submission order and task ordinals so runs stay
// deterministic.
func (e *Engine) specSweep() bool {
	again := false
	for _, id := range e.jobOrder {
		js := e.jobs[id]
		if js == nil || js.Done || js.Killed {
			continue
		}
		for _, t := range js.tasks {
			rts := t.running
			if len(rts) == 0 {
				continue
			}
			// Capped re-speculation: a backup that itself lands on a hung
			// node must not pin the task forever. len(rts) counts live
			// placed attempts (original included), speculated counts
			// spawns, so every spawned backup has been placed exactly when
			// len(rts) > speculated.
			if t.speculated >= maxBackups || len(rts) <= t.speculated {
				continue
			}
			kind := t.Kind
			// Comparator: the slowest committed sibling of the same kind
			// in the same job, tightened by the committed durations for the
			// same base job across all replicas — a fully-hung replica has
			// maxDur == 0 forever; its healthy siblings' histogram still
			// catches it. One observation is enough: the campaign's later
			// jobs run ONE map per replica, so a higher floor would leave a
			// replica pinned to hanging nodes until the verifier timeout.
			threshold := js.maxDur[kind]
			if ub, ok := e.specHist[specKey{baseID(js.Spec.ID), kind}].Quantile(e.SpecQuantile); ok {
				if threshold == 0 || ub < threshold {
					threshold = ub
				}
			}
			if threshold == 0 {
				// No comparator yet: only an engine event (a commit) can
				// change that, and commits re-arm the sweep.
				continue
			}
			// The youngest live attempt governs the trigger: spawning
			// again is only justified once even the freshest backup has
			// lagged past the threshold.
			newest := rts[0].start
			for _, rt := range rts[1:] {
				if rt.start > newest {
					newest = rt.start
				}
			}
			if float64(e.Now()-newest) > specLagFactor*float64(threshold) {
				t.speculated++
				atomic.AddInt64(&e.Metrics.SpeculativeTasks, 1)
				e.ready = append(e.ready, t)
				e.armTick()
			} else {
				again = true
			}
		}
	}
	return again
}

const (
	specLagFactor  = 2.0       // an attempt may run this many times its comparator
	specIntervalUs = 1_000_000 // sweep period: 1s virtual
	// maxBackups caps backups per task. Two backups drive the
	// probability that every attempt of a task sits on a pathological
	// node to (bad placement)^3 while bounding the slot pressure hung
	// attempts can exert.
	maxBackups = 2
)

// specKey is the specHist map key: base job ID (stable across replicas
// and attempts) plus task kind.
type specKey struct {
	base string
	kind TaskKind
}

// mapBody returns the map task's data work as a closure safe to run off
// the simulation goroutine: it reads only state fixed before dispatch
// (the split's lines, the job spec, the cost model) and writes only
// attempt-local state (the outcome and the attempt's digest buffer).
// The commit closure it yields runs back on the simulation goroutine.
// emit receives the attempt's audit digest reports (the attempt's own
// buffer in normal execution, a quiz buffer under Requiz); it is only
// consulted when the spec has Audit set. A quiz's body does not seal its
// output: its commit is dropped.
func (e *Engine) mapBody(t *Task, df digestFactory, emit func(digest.Report), corrupt corruptFn, quiz bool) func(slot int) bodyResult {
	js := t.Job
	split := js.splits[t.InputIdx][t.Index]
	src := js.inputSrcs[t.InputIdx]
	cost := e.Cost
	o := e.obsTask
	var seal *dfs.FS // a shuffle's output is its partitions
	if js.Spec.Reduce == nil && !quiz {
		seal = e.FS
	}
	keep := e.keepsLines(js)
	return func(slot int) bodyResult {
		// Decode only this split's records, here on the worker pool —
		// block decode parallelizes across map tasks and what is decoded
		// never outlives the body. The reader is concurrency-safe.
		sc := e.borrow(slot)
		out := runMapTask(js.Spec, t.InputIdx, src, split[0], split[1], df, corrupt, o, sc)
		if js.Spec.Audit && emit != nil {
			sum, n := auditMapSum(out)
			emit(auditReport(js.Spec, AuditTaskPoint, baseID(js.Spec.ID)+"/"+t.ID(), n, sum))
		}
		out.publish(sc, seal, keep)
		e.scratch[slot] = sc
		// Shuffle cost is charged on the post-combiner record count: the
		// combiner shrinks what crosses the wire and pays CombineRecordUs
		// per folded record instead. Map-only jobs write recordsOut lines
		// and are charged the same rate for them.
		shuffleRecs := out.shuffleRecs
		if js.Spec.Reduce == nil {
			shuffleRecs = out.recordsOut
		}
		dur := cost.TaskStartupUs +
			cost.MapRecordUs*out.recordsIn +
			cost.DigestRecordUs*out.digested +
			cost.CombineRecordUs*out.combinedIn +
			cost.ShuffleRecordUs*shuffleRecs
		commit := func() {
			atomic.AddInt64(&e.Metrics.MapTasks, 1)
			atomic.AddInt64(&e.Metrics.RecordsIn, out.recordsIn)
			atomic.AddInt64(&e.Metrics.HDFSBytesRead, out.inBytes)
			atomic.AddInt64(&e.Metrics.LocalBytesWritten, out.localBytes)
			atomic.AddInt64(&e.Metrics.DigestRecords, out.digested)
			atomic.AddInt64(&e.Metrics.ShuffleRecords, out.shuffleRecs)
			atomic.AddInt64(&e.Metrics.CombinedRecords, out.combinedIn)
			js.mapOutcomes[t.ord] = out
			js.mapsDone++
			if js.Spec.Reduce == nil {
				// Map-only job: task output is final.
				e.writeOutput(js, partFileName(MapTask, t.InputIdx, t.Index), &out.taskOutput)
				atomic.AddInt64(&e.Metrics.RecordsOut, out.recordsOut)
			}
			if js.mapsDone == js.mapsTotal {
				e.mapsFinished(js)
			}
		}
		return bodyResult{dur: dur, commit: commit}
	}
}

// mapsFinished either completes a map-only job or enqueues reduces.
func (e *Engine) mapsFinished(js *JobState) {
	js.mapsDoneTime = e.Now()
	e.Trace.Record("stage", js.Spec.ID, "map", js.runnableTime, e.Now(),
		obs.AI("tasks", int64(js.mapsTotal)))
	if js.Spec.Reduce == nil {
		e.completeJob(js)
		return
	}
	js.redsTotal = js.Spec.NumReduces
	for r := 0; r < js.redsTotal; r++ {
		e.ready = append(e.ready, js.newTask(ReduceTask, 0, r))
	}
	e.Board.JobStages(js.Spec.ID, -1, js.redsTotal)
	if e.obsReg != nil {
		js.obsRedDur = e.obsReg.With("job", baseID(js.Spec.ID), "stage", "reduce").
			Histogram("mapred.stage_task_duration_us", obs.DurationBucketsUs)
	}
	e.armTick()
}

// reduceBody returns the reduce task's data work as a closure safe to
// run off the simulation goroutine. Reduce tasks are only dispatched
// after every map of the job committed, so js.mapOutcomes is immutable
// while the body reads it (committed-task guards prevent late backup
// attempts from writing outcomes again).
func (e *Engine) reduceBody(t *Task, df digestFactory, emit func(digest.Report), quiz bool) func(slot int) bodyResult {
	js := t.Job
	cost := e.Cost
	o := e.obsTask
	seal := e.FS
	if quiz {
		seal = nil
	}
	keep := e.keepsLines(js)
	return func(slot int) bodyResult {
		// Each map outcome contributes its partition as one pre-sorted
		// run; the merge reads runs in place, so attempts (including
		// backups of the same task) share them without copying.
		runs := make([][]interRec, 0, len(js.mapOutcomes))
		var localBytes int64
		for _, out := range js.mapOutcomes {
			if out == nil || t.Index >= len(out.partitions) {
				continue
			}
			runs = append(runs, out.partitions[t.Index])
			for i := range out.partitions[t.Index] {
				localBytes += out.partitions[t.Index][i].bytes()
			}
		}
		sc := e.borrow(slot)
		out := runReduceTask(js.Spec, runs, df, o, sc)
		if js.Spec.Audit && emit != nil {
			sum, n := auditReduceSum(out)
			emit(auditReport(js.Spec, AuditTaskPoint, baseID(js.Spec.ID)+"/"+t.ID(), n, sum))
		}
		out.publish(sc, seal, keep)
		e.scratch[slot] = sc
		dur := cost.TaskStartupUs +
			cost.ReduceRecordUs*(out.recordsIn+out.recordsOut) +
			cost.ShuffleRecordUs*out.recordsIn +
			cost.DigestRecordUs*out.digested
		commit := func() {
			atomic.AddInt64(&e.Metrics.ReduceTasks, 1)
			atomic.AddInt64(&e.Metrics.LocalBytesRead, localBytes)
			atomic.AddInt64(&e.Metrics.DigestRecords, out.digested)
			atomic.AddInt64(&e.Metrics.RecordsOut, out.recordsOut)
			e.writeOutput(js, partFileName(ReduceTask, 0, t.Index), &out.taskOutput)
			js.redsDone++
			if js.redsDone == js.redsTotal {
				e.completeJob(js)
			}
		}
		return bodyResult{dur: dur, commit: commit}
	}
}

// keepsLines reports whether js's output lines are read after the body
// that emitted them: by writeOutput, or by the storage layer's write hook.
func (e *Engine) keepsLines(js *JobState) bool {
	return js.Spec.Audit || js.Spec.Ckpt || e.FS.WriteHook != nil
}

// writeOutput installs task output the body sealed, in commit order, and
// accounts the HDFS write. Under Spec.Audit or Spec.Ckpt the produced
// lines are retained per part (before the storage layer's write hook can
// transform them) for the job's as-produced output digest and checkpoint
// capture.
func (e *Engine) writeOutput(js *JobState, part string, out *taskOutput) {
	if js.Spec.Audit || js.Spec.Ckpt {
		if js.auditParts == nil {
			js.auditParts = make(map[string][]string)
		}
		js.auditParts[part] = out.outLines
	}
	e.FS.Install(joinPath(js.Spec.Output, part), out.sealed, out.outLines)
	atomic.AddInt64(&e.Metrics.HDFSBytesWritten, out.sealed.Bytes())
}

// completeJob finishes a job and unblocks dependents.
func (e *Engine) completeJob(js *JobState) {
	js.Done = true
	js.DoneTime = e.Now()
	if js.Spec.Audit && e.DigestSink != nil {
		// Digest the job's output as produced, concatenated in sorted
		// part-name order — the order ReadTree serves it to consumers —
		// so the producer-side digest is directly comparable to any
		// consumer's AuditIOInPoint digest of the same tree.
		lines := js.ProducedLines()
		e.DigestSink(auditReport(js.Spec, AuditIOOutPoint, baseID(js.Spec.ID),
			int64(len(lines)), digest.OfLines(lines)))
	}
	if js.Spec.Ckpt && e.DigestSink != nil {
		// Checkpoint digest over the same as-produced stream: the
		// controller persists a replica's retained lines only under f+1
		// agreement on this digest, so checkpoint bytes are exactly the
		// verified bytes even when a storage write hook mangled the DFS
		// copy.
		lines := js.ProducedLines()
		e.DigestSink(auditReport(js.Spec, CkptPoint, baseID(js.Spec.ID),
			int64(len(lines)), digest.OfLines(lines)))
	}
	if js.Spec.Reduce != nil {
		e.Trace.Record("stage", js.Spec.ID, "reduce", js.mapsDoneTime, e.Now(),
			obs.AI("tasks", int64(js.redsTotal)))
	}
	e.Trace.Record("job", js.Spec.ID, "job", js.SubmitTime, e.Now(),
		obs.A("sid", js.Spec.SID))
	// Release any attempts still occupying slots (hung originals whose
	// work was rescued by a backup).
	e.dropAttempts(js)
	atomic.AddInt64(&e.Metrics.JobsCompleted, 1)
	e.Board.JobDone(js.Spec.ID, e.Now())
	for _, dep := range js.dependents {
		dep.depsLeft--
		if dep.depsLeft == 0 {
			e.makeRunnable(dep)
		}
	}
	if e.OnJobDone != nil {
		e.OnJobDone(js)
	}
}

// KillJob aborts a job: running tasks are torn down (their slots free
// immediately, matching Hadoop's task kill), queued tasks are dropped,
// and its output so far is left in place for inspection.
func (e *Engine) KillJob(id string) {
	js := e.jobs[id]
	if js == nil || js.Done || js.Killed {
		return
	}
	js.Killed = true
	e.dropAttempts(js)
	var keep []*Task
	for _, t := range e.ready {
		if t.Job != js {
			keep = append(keep, t)
		}
	}
	e.ready = keep
	e.Board.JobKilled(id, e.Now())
	e.armTick()
}

// dropAttempts tears down every live attempt of js and frees its slot.
func (e *Engine) dropAttempts(js *JobState) {
	for _, t := range js.tasks {
		for _, rt := range t.running {
			rt.dead = true
			e.releaseSlot(rt.node)
		}
		t.running = nil
	}
}

// releaseSlot returns one task slot to a node — unless the node crashed,
// in which case its capacity vanished with it and RejoinNode restores the
// full complement. Every teardown path that pairs with a startTask slot
// claim must go through here so crash-stop cannot mint phantom slots.
func (e *Engine) releaseSlot(n cluster.NodeID) {
	if !e.dead[n] {
		e.freeSlots[n]++
	}
}

// CrashNode fail-stops a node at the current virtual time: its slots
// vanish, its replica bindings are forgotten, and every attempt it was
// running dies. A dead attempt's task is requeued when no other live
// attempt exists and its result has not committed, so surviving nodes
// (or the node itself after RejoinNode) can pick the work back up — the
// task-level recovery Hadoop performs below the verifier's timeout.
// Crashing an unknown or already-dead node is a no-op. It reports
// whether the node was alive.
func (e *Engine) CrashNode(id cluster.NodeID) bool {
	if e.dead[id] {
		return false
	}
	known := false
	for _, n := range e.Cluster.Nodes() {
		if n.ID == id {
			known = true
			break
		}
	}
	if !known {
		return false
	}
	e.dead[id] = true
	e.freeSlots[id] = 0
	delete(e.sidBinding, id)
	e.Trace.Instant("fault", string(id), "crash", e.Now())
	// jobOrder and ordinal iteration keep the requeue order deterministic.
	for _, jid := range e.jobOrder {
		js := e.jobs[jid]
		if js == nil || js.Done || js.Killed {
			continue
		}
		for _, t := range js.tasks {
			survivors := t.running[:0]
			lost := false
			for _, rt := range t.running {
				if rt.node == id {
					rt.dead = true
					lost = true
				} else {
					survivors = append(survivors, rt)
				}
			}
			t.running = survivors
			if !lost {
				continue
			}
			// Any loss re-opens speculation for this task: if the crash
			// took the backup while a hung or slow original survives, the
			// stale speculated count would otherwise block every future
			// sweep from launching a replacement backup.
			t.speculated = 0
			if len(survivors) == 0 && !t.committed {
				// No live attempt remains: put the task back on the ready
				// queue and let speculation treat the rerun as a fresh
				// original.
				e.ready = append(e.ready, t)
			}
		}
	}
	e.armTick()
	// Wake the sweep: with the speculated flags cleared above, a
	// surviving straggler may need a fresh backup, and no commit event
	// is guaranteed to re-arm it.
	e.armSpec()
	return true
}

// RejoinNode brings a crashed node back with its full slot complement
// (and no memory of prior replica bindings — the crash cleared them, so
// the scheduler may bind it to any replica afresh). Rejoining a live or
// unknown node is a no-op. It reports whether a rejoin happened.
func (e *Engine) RejoinNode(id cluster.NodeID) bool {
	if !e.dead[id] {
		return false
	}
	delete(e.dead, id)
	for _, n := range e.Cluster.Nodes() {
		if n.ID == id {
			e.freeSlots[id] = n.Slots
			break
		}
	}
	e.Trace.Instant("fault", string(id), "rejoin", e.Now())
	e.armTick()
	return true
}

// NodeDead reports whether id is currently crash-stopped.
func (e *Engine) NodeDead(id cluster.NodeID) bool { return e.dead[id] }

// Run processes events until the queue drains. Jobs hung on omission
// faults leave the queue empty with jobs incomplete — callers arm
// timeouts via After to regain control (the verifier does, §4.2 step 6).
// A sealed block that cannot be read back, by a task body (settle) or by
// the engine itself, ends the run there and then, for good: see Fault.
func (e *Engine) Run() {
	defer func() {
		r := recover()
		if bad, ok := r.(*dfs.BlockError); ok {
			e.Fault = bad
		} else if r != nil {
			panic(r)
		}
	}()
	for e.Fault == nil && e.Step() {
	}
}

// FreeSlotsTotal sums currently free task slots across the cluster; when
// the engine is idle it must equal the cluster's total capacity (an
// invariant the tests check under faults, kills and speculation).
func (e *Engine) FreeSlotsTotal() int {
	total := 0
	for _, n := range e.Cluster.Nodes() {
		total += e.freeSlots[n.ID]
	}
	return total
}

// Idle reports whether no job is runnable, running, or pending.
func (e *Engine) Idle() bool {
	for _, js := range e.jobs {
		if !js.Done && !js.Killed {
			return false
		}
	}
	return true
}

// JobCount returns how many submitted jobs the engine still tracks;
// lifecycle tests pin it to prove ForgetSID bounds engine state across
// repeated controller runs.
func (e *Engine) JobCount() int { return len(e.jobs) }

// baseID returns the job's compile-time base ID: a controller-rewritten
// spec ID has the form "<prefix>/<base>" where base is stable across
// replicas and attempts. An ID with no '/' is its own base.
func baseID(id string) string {
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		return id[i+1:]
	}
	return id
}

// auditReport builds a one-shot audit digest report for a job's stream.
func auditReport(spec *JobSpec, point int, task string, records int64, sum digest.Sum) digest.Report {
	return digest.Report{
		Key:     digest.Key{SID: spec.SID, Point: point, Task: task},
		Replica: spec.Replica,
		Final:   true,
		Records: records,
		Sum:     sum,
	}
}

// TaskIDs lists the job's task identities in ordinal order: map tasks by
// (input, split), then reduce tasks by partition. Valid once the job is
// runnable (map tasks made); for a Done job it covers every task that
// committed.
func (j *JobState) TaskIDs() []string {
	out := make([]string, len(j.tasks))
	for i, t := range j.tasks {
		out[i] = t.id
	}
	return out
}

// Requiz re-executes one committed task of a completed job on the
// trusted tier — the quiz step of the quiz/deferred verification
// policies. The task body runs honestly (no node adversary, no chaos
// hook) over the same retained inputs the primary attempt consumed (the
// split's range of the job's retained input reader for a map task — the
// reader snapshots the input at runnable time, so the quiz re-reads the
// exact records the primary saw — the primary's committed map
// outcomes for a reduce task), computing the same in-chain
// verification-point digests plus the AuditTaskPoint output digest, all
// tagged with quizReplica. The re-execution holds no cluster slot: the
// trusted tier is modeled as parallel capacity, but its CPU is charged
// to Metrics.CPUTimeUs (the ε of "1+ε cost" verification) and its
// digests replay to sink after the body's virtual duration elapses, so
// verification latency is honest. The task's output is discarded —
// quizzes verify, they never publish.
func (e *Engine) Requiz(jobID, taskID string, quizReplica int, sink func(digest.Report), done func()) error {
	js := e.jobs[jobID]
	if js == nil {
		return fmt.Errorf("mapred: requiz of unknown job %q", jobID)
	}
	if !js.Done {
		return fmt.Errorf("mapred: requiz of incomplete job %q", jobID)
	}
	i := slices.IndexFunc(js.tasks, func(t *Task) bool { return t.id == taskID })
	if i < 0 {
		return fmt.Errorf("mapred: job %s has no task %q", jobID, taskID)
	}
	t := js.tasks[i]
	buf := &digest.Buffer{}
	chunk := e.DigestChunk
	df := func(point int) *digest.Writer {
		key := digest.Key{SID: js.Spec.SID, Point: point, Task: t.ID()}
		w := digest.NewWriter(key, quizReplica, chunk, buf.Add)
		w.Obs = e.obsDigestRecs
		return w
	}
	// Audit-task reports built from the job spec carry the primary's
	// replica index; restamp them so quiz evidence never overwrites the
	// primary's entries in the verifier's store.
	quizAdd := func(r digest.Report) {
		r.Replica = quizReplica
		buf.Add(r)
	}
	var body func(slot int) bodyResult
	if t.Kind == MapTask {
		body = e.mapBody(t, df, quizAdd, nil, true)
	} else {
		body = e.reduceBody(t, df, quizAdd, true)
	}
	res, err := pool.Go(e.bodyPool(), body).Wait()
	if err != nil {
		return fmt.Errorf("mapred: requiz of %s/%s: %w", jobID, taskID, err)
	}
	atomic.AddInt64(&e.Metrics.CPUTimeUs, res.dur)
	e.obsCPUCommitted.Add(res.dur)
	e.Ledger.Quiz(js.Spec.SID, res.dur)
	e.QuizTasks++
	e.Trace.Instant("quiz", "trusted", jobID+"/"+taskID, e.Now())
	e.After(res.dur, func() {
		// res.commit is deliberately dropped: the primary already
		// committed this task's effects.
		buf.Replay(sink)
		if done != nil {
			done()
		}
	})
	return nil
}

// SIDForgetter is implemented by schedulers that keep per-sub-graph
// affinity state; Engine.ForgetSID forwards to it so attempt teardown
// prunes the whole stack.
type SIDForgetter interface {
	ForgetSID(sid string)
}

// ForgetSID drops every trace of a sub-graph attempt from the engine:
// its jobs, output registrations, queued tasks, and per-node replica
// bindings, plus the scheduler's affinity state when the scheduler
// implements SIDForgetter. The controller calls it for superseded
// attempts once their replacement verified and for all attempts at
// end-of-run teardown, so engine state stays bounded across repeated
// runs. Callers must not forget a sid that may still receive events
// (live attempts, or completed attempts a pending quiz still reads).
func (e *Engine) ForgetSID(sid string) {
	if sid == "" {
		return
	}
	for n, m := range e.sidBinding {
		delete(m, sid)
		if len(m) == 0 {
			delete(e.sidBinding, n)
		}
	}
	keepOrder := e.jobOrder[:0]
	for _, id := range e.jobOrder {
		js := e.jobs[id]
		if js != nil && js.Spec.SID == sid {
			delete(e.jobs, id)
			if e.byOutput[js.Spec.Output] == js {
				delete(e.byOutput, js.Spec.Output)
			}
			continue
		}
		keepOrder = append(keepOrder, id)
	}
	e.jobOrder = keepOrder
	keepReady := e.ready[:0]
	for _, t := range e.ready {
		if t.Job.Spec.SID != sid {
			keepReady = append(keepReady, t)
		}
	}
	e.ready = keepReady
	if f, ok := e.Sched.(SIDForgetter); ok {
		f.ForgetSID(sid)
	}
	e.Ledger.Fold(sid)
}
