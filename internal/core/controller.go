package core

import (
	"fmt"
	"sort"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
)

// Config parameterizes one ClusterBFT request (paper §4.1: the client
// specifies f, a replication factor r, and n verification points, chosen
// from perceived threat level).
type Config struct {
	// F is the number of simultaneous faults to tolerate.
	F int
	// R is the initial replication degree: f+1 (optimistic — may need
	// re-runs), 2f+1 (safe absent omissions) or 3f+1 (§3.3).
	R int
	// Points is n, the number of verification points the graph analyzer
	// marks; -1 marks every candidate vertex (the "Individual"
	// configuration of Fig 14).
	Points int
	// ForcePointAliases bypasses the marker function and places
	// verification points at the named relation aliases (used by the
	// Fig 9/10 sweeps, which vary the instrumented operator).
	ForcePointAliases []string
	// Model is the adversary model restricting candidate points.
	Model analyze.Model
	// VerifyFinalOnly is the paper's "P" baseline (Table 3): digests only
	// at final outputs, so any fault re-runs the whole script.
	VerifyFinalOnly bool
	// DigestChunk is d, records per digest (§6.4); <= 0 digests whole
	// streams.
	DigestChunk int
	// NumReduces is the reduce parallelism handed to the compiler.
	NumReduces int
	// TimeoutUs is the verifier timeout for one sub-graph attempt; on
	// expiry the sub-graph is re-initiated with r+1 replicas and twice
	// the timeout (§4.2 step 6).
	TimeoutUs int64
	// MaxAttempts bounds re-initiations per sub-graph.
	MaxAttempts int
	// Offline enables approximate offline comparison (§3.3): follow-up
	// sub-graphs start on the first completed replica's output before
	// verification finishes, and are restarted if that replica turns out
	// deviant.
	Offline bool
	// SuspicionThreshold evicts nodes from the inclusion list (§4.2);
	// <= 0 disables eviction.
	SuspicionThreshold float64
	// VerifyPolicy selects how sub-graphs are verified: PolicyFull (the
	// zero value behaves as full) replicates r times, PolicyQuiz and
	// PolicyDeferred run one primary at "1+ε" cost, and PolicyAuto picks
	// per sub-graph from suspicion history. See policy.go.
	VerifyPolicy Policy
	// QuizFraction is the fraction of a primary's tasks re-executed as
	// quizzes under PolicyQuiz/PolicyDeferred; <= 0 defaults to 0.25 and
	// values above 1 are clamped. At least one task is always quizzed.
	QuizFraction float64
	// Storage configures the DFS block data plane (block size, resident
	// memory budget, spill directory, compression). It does not affect
	// observables: digests are over canonical record bytes, never block
	// bytes. Harnesses that construct the FS themselves (faultsim chaos
	// mode, the experiments rig) read it from here; the controller never
	// builds an FS.
	Storage dfs.Options
	// Checkpoint persists f+1-agreed interior job outputs of full-r
	// sub-graphs to durable ckpt/ paths, so a later attempt of the same
	// sub-graph re-executes only the DAG suffix downstream of the last
	// verified point (see checkpoint.go). Off by default; off is
	// byte-identical to historical behavior.
	Checkpoint bool
}

// DefaultConfig mirrors the paper's common setup: f=1, full BFT
// replication, two verification points, weak adversary, offline
// comparison.
func DefaultConfig() Config {
	return Config{
		F:           1,
		R:           4,
		Points:      2,
		Model:       analyze.Weak,
		DigestChunk: 0,
		NumReduces:  2,
		TimeoutUs:   600_000_000, // 10 virtual minutes
		MaxAttempts: 6,
		Offline:     true,
	}
}

// Validate rejects what cannot verify or cannot launch: F < 0 makes f+1
// agreement among none, R < 1 launches nothing and waits out every
// timeout, and the verifier tallies at most MaxReplicas per attempt.
// Zero-value defaulting stays in NewController.
func (c Config) Validate() error {
	switch {
	case c.F < 0:
		return fmt.Errorf("core: f = %d, want >= 0", c.F)
	case c.R < 1:
		return fmt.Errorf("core: r = %d, want >= 1", c.R)
	case c.R > MaxReplicas:
		return fmt.Errorf("core: r = %d replicas, the verifier tallies at most %d per attempt", c.R, MaxReplicas)
	}
	return nil
}

// Result summarizes one assured script execution.
type Result struct {
	// Verified is true when every sub-graph reached f+1 agreement.
	Verified bool
	// LatencyUs is the virtual time from submission until the last final
	// sub-graph verified.
	LatencyUs int64
	// Outputs maps each STORE path of the script to the DFS location of
	// the verified winner replica's output.
	Outputs map[string]string
	// Attempts counts sub-graph attempts across the run (1 per cluster
	// when nothing fails).
	Attempts int
	// Clusters is the number of replicated sub-graphs.
	Clusters int
	// PointsUsed are the verification-point vertex IDs.
	PointsUsed []int
	// FaultyReplicas counts replicas whose digests deviated.
	FaultyReplicas int
	// Suspects is the fault analyzer's final suspicion set.
	Suspects []cluster.NodeID
	// DigestReports counts digests the verifier received.
	DigestReports int64
	// Metrics snapshots the engine counters over the run.
	Metrics mapred.Metrics
}

// sourceRef records which upstream replica's output a sub-graph attempt
// consumed.
type sourceRef struct {
	sid      string
	replica  int
	prefix   string
	verified bool
}

type repState struct {
	idx       int
	prefix    string
	jobIDs    []string
	done      int
	completed bool
	faulty    bool
	nodes     NodeSet
}

type clusterState struct {
	id       int
	jobs     []*mapred.JobSpec // templates, topological
	upstream []int
	terminal bool
	// hasInDep marks template IDs some other job of the SAME cluster
	// depends on; only those are checkpoint-eligible (boundary jobs must
	// always re-execute so a recovery suffix is never empty).
	hasInDep map[string]bool

	attempt    int
	totalTries int
	r          int
	// suffixBoost counts the timeout escalations of r earned while
	// attempts re-executed only a checkpointed suffix; a later full
	// re-execution sheds them, since the checkpointed-prefix jobs were
	// never implicated (suffix-scoped replica sizing, DESIGN.md §12).
	suffixBoost int
	timeoutUs   int64
	sid         string
	launchedAtV int64
	launched    bool
	verified    bool
	failed      bool
	verifiedAt  int64
	winner      int
	winnerFP    digest.Sum
	sources     map[int]sourceRef
	replicas    []*repState
	// launchJobs is the template subset the current attempt actually
	// submitted (all of cs.jobs unless checkpoints covered a prefix);
	// repState.jobIDs, onJobDone counting and quiz sampling index it.
	launchJobs []*mapred.JobSpec

	// policy is the verification policy resolved at first launch (see
	// decidePolicy); escalation rewrites it to PolicyFull.
	policy Policy
	// quizPending counts quiz re-executions still running for the current
	// attempt; quizFailed latches the first mismatch so stragglers don't
	// escalate twice.
	quizPending int
	quizFailed  bool
	// staleSids holds superseded attempts' sids; their matcher/engine
	// state is swept once the sub-graph verifies (after the downstream
	// restart decisions, which still fingerprint old source sids).
	staleSids []string
}

// Controller is the trusted control tier: request handler + verifier +
// resource-manager bookkeeping, driving an untrusted mapred.Engine. A
// controller owns its engine's callbacks. Suspicion state persists across
// Run calls, which is how fault isolation sharpens over a stream of jobs.
type Controller struct {
	Eng  *mapred.Engine
	Cfg  Config
	Susp *SuspicionTable
	FA   *FaultAnalyzer

	matcher *Matcher
	runSeq  int
	reports int64
	audit   *analyze.AuditTrail

	// checkpoint registry: cluster id -> template job ID -> entry.
	// Run-scoped (reset in initRun); entries survive across attempts of
	// one run, which is the whole point.
	ckpts     map[int]map[string]*ckptEntry
	ckptStats CheckpointStats
	// checkpoint counters, registered only when Cfg.Checkpoint is set so
	// the /metrics surface of legacy configs stays byte-identical.
	obsCkptSaves          *obs.Counter
	obsCkptHits           *obs.Counter
	obsCkptBytesWritten   *obs.Counter
	obsCkptBytesReclaimed *obs.Counter

	// run-scoped state
	clusterOf  map[string]int // template job ID -> cluster
	producedBy map[string]string
	templates  map[string]*mapred.JobSpec
	clusters   []*clusterState
	jobRef     map[string][2]int // engine job ID -> (cluster, replica)
	sidIndex   map[string]*clusterState
	faultyReps int
	runErr     error
}

// NewController wires a controller to an engine. susp and fa may be nil
// for fresh state.
func NewController(eng *mapred.Engine, cfg Config, susp *SuspicionTable, fa *FaultAnalyzer) *Controller {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.Model == 0 {
		cfg.Model = analyze.Weak
	}
	if cfg.VerifyPolicy == 0 {
		cfg.VerifyPolicy = PolicyFull
	}
	if cfg.QuizFraction <= 0 {
		cfg.QuizFraction = 0.25
	}
	if cfg.QuizFraction > 1 {
		cfg.QuizFraction = 1
	}
	if susp == nil {
		susp = NewSuspicionTable(cfg.SuspicionThreshold)
	}
	if fa == nil {
		fa = NewFaultAnalyzer(cfg.F)
	}
	c := &Controller{Eng: eng, Cfg: cfg, Susp: susp, FA: fa, matcher: NewMatcher(cfg.F)}
	eng.DigestChunk = cfg.DigestChunk
	eng.DigestSink = c.onDigest
	eng.OnJobDone = c.onJobDone
	if cfg.Checkpoint {
		if reg := eng.Registry(); reg != nil {
			c.obsCkptSaves = reg.Counter("core.checkpoint.saves")
			c.obsCkptHits = reg.Counter("core.checkpoint.hits")
			c.obsCkptBytesWritten = reg.Counter("core.checkpoint.bytes_written")
			c.obsCkptBytesReclaimed = reg.Counter("core.checkpoint.bytes_reclaimed")
		}
	}
	return c
}

// AttachAudit routes the audit trail through the pipeline: the
// verifier's decisions (see record), category transitions from the
// suspicion table, and every intersection step of the fault analyzer
// land in trail with the evidence that caused them. Nil detaches.
func (c *Controller) AttachAudit(trail *analyze.AuditTrail) {
	c.audit = trail
	c.Susp.Audit = trail
	c.FA.Audit = trail
}

// Run executes one script under BFT protection and blocks until the
// simulation drains.
func (c *Controller) Run(script string) (*Result, error) {
	if err := c.Cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := pig.Parse(script)
	if err != nil {
		return nil, err
	}
	points, err := c.choosePoints(plan)
	if err != nil {
		return nil, err
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{
		Points:     points,
		NumReduces: c.Cfg.NumReduces,
	})
	if err != nil {
		return nil, err
	}
	c.runSeq++
	c.initRun(jobs, points)

	start := c.Eng.Now()
	for _, cs := range c.clusters {
		if len(cs.upstream) == 0 {
			c.tryLaunch(cs)
		}
	}
	c.Eng.Run()
	if bad := c.Eng.Fault; bad != nil {
		c.fail(fmt.Errorf("core: trusted storage failed: %w", bad))
	}
	// Sweep every remaining attempt's verifier and engine state: digest
	// vectors, scheduler affinity and job records are request-scoped, and
	// a controller serving a stream of Runs must not accumulate them.
	c.teardownRun()
	if c.runErr != nil {
		return nil, c.runErr
	}

	res := &Result{
		Verified:       true,
		Outputs:        make(map[string]string),
		Clusters:       len(c.clusters),
		PointsUsed:     points,
		FaultyReplicas: c.faultyReps,
		Suspects:       c.FA.Suspects(),
		DigestReports:  c.reports,
		Metrics:        c.Eng.Metrics,
	}
	for _, cs := range c.clusters {
		res.Attempts += cs.totalTries
		if !cs.verified {
			res.Verified = false
			continue
		}
		if cs.terminal && cs.verifiedAt-start > res.LatencyUs {
			res.LatencyUs = cs.verifiedAt - start
		}
		winPrefix := cs.replicas[cs.winner].prefix
		for _, j := range cs.jobs {
			if j.Final {
				res.Outputs[j.Output] = winPrefix + "/" + j.Output
			}
		}
	}
	if !res.Verified {
		return res, fmt.Errorf("core: run ended with unverified sub-graphs")
	}
	return res, nil
}

// choosePoints runs the graph analyzer. Final outputs are always
// verified; VerifyFinalOnly stops there (the P baseline), otherwise the
// marker function adds the client's n points (§4.1). A forced alias
// that names no relation in the plan is a configuration error: silently
// skipping it would run the script with fewer verification points than
// the client asked for.
func (c *Controller) choosePoints(plan *pig.Plan) ([]int, error) {
	set := make(map[int]bool)
	for _, st := range plan.Stores() {
		set[st.Parents[0].ID] = true
	}
	switch {
	case c.Cfg.VerifyFinalOnly:
		// final outputs only (the P / Full baselines)
	case len(c.Cfg.ForcePointAliases) > 0:
		for _, alias := range c.Cfg.ForcePointAliases {
			v := plan.ByAlias(alias)
			if v == nil {
				return nil, fmt.Errorf("core: forced verification point %q names no relation in the script", alias)
			}
			set[v.ID] = true
		}
	case c.Cfg.Points < 0:
		a := analyze.Analyze(plan, c.sizeOf)
		for _, p := range a.Candidates(c.Cfg.Model) {
			set[p] = true
		}
	case c.Cfg.Points > 0:
		a := analyze.Analyze(plan, c.sizeOf)
		// Final outputs are already verified; seed them into the marker
		// so the n explicit points land mid-flow (Fig 4's tradeoff).
		finals := make([]int, 0, len(set))
		for id := range set {
			finals = append(finals, id)
		}
		sort.Ints(finals)
		for _, p := range a.Mark(c.Cfg.Points, c.Cfg.Model, finals...) {
			set[p] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out, nil
}

func (c *Controller) sizeOf(path string) int64 {
	if n, err := c.Eng.FS.Size(path); err == nil {
		return n
	}
	return c.Eng.FS.TreeSize(path)
}

// initRun groups compiled jobs into sub-graphs: the job DAG is cut below
// every job materializing a verification point, and each connected
// component becomes one replicated cluster (§3.3 "variable granularity").
func (c *Controller) initRun(jobs []*mapred.JobSpec, points []int) {
	pointSet := make(map[int]bool, len(points))
	for _, p := range points {
		pointSet[p] = true
	}
	c.templates = make(map[string]*mapred.JobSpec, len(jobs))
	c.producedBy = make(map[string]string, len(jobs))
	for _, j := range jobs {
		c.templates[j.ID] = j
		c.producedBy[j.Output] = j.ID
	}
	boundary := func(id string) bool {
		j := c.templates[id]
		return j != nil && pointSet[j.OutVertex]
	}
	// Union-find over job IDs, skipping edges out of boundary jobs.
	parent := make(map[string]string, len(jobs))
	var find func(string) string
	find = func(x string) string {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for _, j := range jobs {
		parent[j.ID] = j.ID
	}
	for _, j := range jobs {
		for _, d := range j.Deps {
			if !boundary(d) {
				parent[find(j.ID)] = find(d)
			}
		}
	}
	c.clusterOf = make(map[string]int, len(jobs))
	c.clusters = nil
	rootIdx := make(map[string]int)
	for _, j := range jobs { // template order is topological
		root := find(j.ID)
		idx, ok := rootIdx[root]
		if !ok {
			idx = len(c.clusters)
			rootIdx[root] = idx
			c.clusters = append(c.clusters, &clusterState{
				id:        idx,
				r:         c.Cfg.R,
				timeoutUs: c.Cfg.TimeoutUs,
				sources:   make(map[int]sourceRef),
			})
		}
		c.clusterOf[j.ID] = idx
		cs := c.clusters[idx]
		cs.jobs = append(cs.jobs, j)
		if j.Final {
			cs.terminal = true
		}
	}
	for _, j := range jobs {
		jc := c.clusterOf[j.ID]
		for _, d := range j.Deps {
			if dc := c.clusterOf[d]; dc != jc {
				if !contains(c.clusters[jc].upstream, dc) {
					c.clusters[jc].upstream = append(c.clusters[jc].upstream, dc)
				}
			} else {
				cs := c.clusters[jc]
				if cs.hasInDep == nil {
					cs.hasInDep = make(map[string]bool)
				}
				cs.hasInDep[d] = true
			}
		}
	}
	c.ckpts = make(map[int]map[string]*ckptEntry)
	c.jobRef = make(map[string][2]int)
	c.sidIndex = make(map[string]*clusterState)
	c.faultyReps = 0
	c.reports = 0
	c.runErr = nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// sourcesReady reports whether every upstream sub-graph can supply input:
// a verified winner, or (offline mode) any completed replica.
func (c *Controller) sourcesReady(cs *clusterState) bool {
	for _, u := range cs.upstream {
		up := c.clusters[u]
		if up.verified {
			continue
		}
		if !c.Cfg.Offline {
			return false
		}
		if up.failed || firstCompleted(up) < 0 {
			return false
		}
	}
	return true
}

// firstCompleted picks the optimistic source replica: the first
// completed one the online digest comparison has not already flagged as
// deviant (consuming a known-corrupt output would guarantee a restart).
func firstCompleted(cs *clusterState) int {
	for _, rs := range cs.replicas {
		if rs.completed && !rs.faulty {
			return rs.idx
		}
	}
	return -1
}

// tryLaunch starts a sub-graph attempt once its inputs are available.
func (c *Controller) tryLaunch(cs *clusterState) {
	if cs.launched || cs.verified || cs.failed || !c.sourcesReady(cs) {
		return
	}
	if cs.policy == 0 {
		cs.policy = c.decidePolicy()
		if cs.policy != PolicyFull {
			// Healthy history: one primary replica; verification comes
			// from quiz re-execution and storage-boundary audits.
			cs.r = 1
		}
	}
	if cs.r > MaxReplicas {
		c.fail(fmt.Errorf("core: sub-graph c%d needs %d replicas, the verifier tallies at most %d per attempt", cs.id, cs.r, MaxReplicas))
		return
	}
	cs.launched = true
	cs.launchedAtV = c.Eng.Now()
	cs.totalTries++
	cs.quizPending = 0
	cs.quizFailed = false
	superseded := cs.sid
	if superseded != "" {
		// The superseded attempt's digests are still needed for the
		// downstream restart decisions at verification; sweep then.
		cs.staleSids = append(cs.staleSids, superseded)
	}
	cs.sid = fmt.Sprintf("run%d-c%d-a%d", c.runSeq, cs.id, cs.attempt)
	c.sidIndex[cs.sid] = cs
	cs.sources = make(map[int]sourceRef)
	for _, u := range cs.upstream {
		up := c.clusters[u]
		if up.verified {
			cs.sources[u] = sourceRef{
				sid: up.sid, replica: up.winner,
				prefix: up.replicas[up.winner].prefix, verified: true,
			}
		} else {
			rep := firstCompleted(up)
			cs.sources[u] = sourceRef{
				sid: up.sid, replica: rep,
				prefix: up.replicas[rep].prefix,
			}
		}
	}
	// Checkpoint-granular recovery: compute the suffix this attempt must
	// actually execute. skip maps template IDs whose f+1-agreed output an
	// earlier attempt persisted (and whose source signature still
	// matches); their consumers read the checkpoint file instead.
	skip, run := c.coveredTemplates(cs)
	cs.launchJobs = cs.jobs
	if skip != nil {
		cs.launchJobs = make([]*mapred.JobSpec, 0, len(run))
		for _, tmpl := range cs.jobs { // keep topological template order
			if run[tmpl.ID] {
				cs.launchJobs = append(cs.launchJobs, tmpl)
			}
		}
		for _, tmpl := range cs.jobs {
			if e := skip[tmpl.ID]; e != nil {
				cs.ckptHit(c, e)
			}
		}
	}
	// Suffix-scoped replica sizing: timeout escalations earned while
	// re-executing only a checkpointed suffix priced the extra replicas
	// for that suffix, not for the checkpointed-prefix jobs — which were
	// f+1-agreed and never re-ran. When a later attempt must re-execute
	// the full sub-graph (checkpoints invalidated or dropped), it sheds
	// those suffix escalations and runs at the degree the prefix always
	// had. Full-graph escalations are untouched, and so is every
	// checkpoint-off configuration (suffixBoost stays 0 there).
	if skip == nil && cs.suffixBoost > 0 {
		cs.r -= cs.suffixBoost
		cs.suffixBoost = 0
	}
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditLaunch, Replica: -1, Detail: superseded}, 0)
	cs.replicas = make([]*repState, cs.r)
	for rep := 0; rep < cs.r; rep++ {
		rs := &repState{idx: rep, nodes: make(NodeSet)}
		rs.prefix = fmt.Sprintf("x/%s/r%d", cs.sid, rep)
		cs.replicas[rep] = rs
		// Attempt-scoped sids already give every launch a fresh namespace;
		// the purge makes the no-append guarantee unconditional — a
		// relaunch must never Append onto a dead attempt's partial records
		// even if a prefix were ever reused.
		c.Eng.FS.DeleteTree(rs.prefix)
		for _, tmpl := range cs.launchJobs {
			spec := c.rewriteJob(cs, rs, tmpl, skip)
			rs.jobIDs = append(rs.jobIDs, spec.ID)
			c.jobRef[spec.ID] = [2]int{cs.id, rep}
			if _, err := c.Eng.Submit(spec); err != nil {
				c.fail(fmt.Errorf("core: submit %s: %w", spec.ID, err))
				return
			}
		}
	}
	c.armTimeout(cs)
}

// ckptHit accounts one checkpoint-covered job at launch: the skipping
// attempt avoids recomputing its output on every one of its replicas.
func (cs *clusterState) ckptHit(c *Controller, e *ckptEntry) {
	c.ckptStats.Hits++
	c.ckptStats.BytesReclaimed += e.bytes * int64(cs.r)
	c.obsCkptHits.Inc()
	c.obsCkptBytesReclaimed.Add(e.bytes * int64(cs.r))
}

// armTimeout arms the verifier timer for the current attempt. The timer
// is keyed by the attempt's sid, so a stale timer from an earlier attempt
// can never fire a retry against a newer one, and every attempt —
// including re-initiations carrying a doubled timeout — runs under its
// own fresh timer.
func (c *Controller) armTimeout(cs *clusterState) {
	sid := cs.sid
	c.Eng.After(cs.timeoutUs, func() { c.onTimeout(cs, sid) })
}

// rewriteJob clones a template for one replica of one attempt, rewriting
// paths, IDs and dependencies into the replica's namespace; inputs
// produced by upstream sub-graphs point at the chosen source replica.
func (c *Controller) rewriteJob(cs *clusterState, rs *repState, tmpl *mapred.JobSpec, skip map[string]*ckptEntry) *mapred.JobSpec {
	spec := tmpl.Clone()
	spec.ID = rs.prefix + "/" + tmpl.ID
	spec.SID = cs.sid
	spec.Replica = rs.idx
	spec.Output = rs.prefix + "/" + tmpl.Output
	// Quiz/deferred attempts carry audit digests: per-task pre-combine
	// sums quizzes are checked against, plus storage-boundary in/out sums
	// that pin what actually crossed the untrusted DFS.
	spec.Audit = cs.policy != PolicyFull
	spec.Ckpt = c.ckptEligible(cs, tmpl.ID)
	var deps []string
	for _, d := range tmpl.Deps {
		if c.clusterOf[d] == cs.id && skip[d] == nil {
			deps = append(deps, rs.prefix+"/"+d)
		}
		// Cross-cluster deps are satisfied by data availability: the
		// source replica completed before this attempt launched. A
		// checkpoint-skipped producer's data is likewise already durable.
	}
	spec.Deps = deps
	for i := range spec.Inputs {
		path := spec.Inputs[i].Path
		prod, ok := c.producedBy[path]
		if !ok {
			continue // raw script input from trusted storage
		}
		if c.clusterOf[prod] == cs.id {
			if e := skip[prod]; e != nil {
				// Checkpoint-covered producer: read the f+1-agreed bytes
				// from the trusted ckpt/ path, like a script input.
				spec.Inputs[i].Path = e.path
				continue
			}
			spec.Inputs[i].AuditIn = spec.Audit
			spec.Inputs[i].Path = rs.prefix + "/" + path
		} else {
			spec.Inputs[i].AuditIn = spec.Audit
			src := cs.sources[c.clusterOf[prod]]
			spec.Inputs[i].Path = src.prefix + "/" + path
		}
	}
	return spec
}

func (c *Controller) fail(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
}

// ClusterStatus is a read-only snapshot of one sub-graph's recovery
// state, for the chaos campaign's invariant checks.
type ClusterStatus struct {
	ID       int
	Attempts int
	Upstream []int
	Verified bool
	Failed   bool
}

// ClusterStates snapshots every sub-graph of the most recent Run.
func (c *Controller) ClusterStates() []ClusterStatus {
	out := make([]ClusterStatus, len(c.clusters))
	for i, cs := range c.clusters {
		out[i] = ClusterStatus{
			ID:       cs.id,
			Attempts: cs.totalTries,
			Upstream: append([]int(nil), cs.upstream...),
			Verified: cs.verified,
			Failed:   cs.failed,
		}
	}
	return out
}

// onDigest stores digests as they stream in from the untrusted tier and
// runs the approximate online comparison (§3.3): as soon as f+1 replicas
// agree on a chunk, any replica reporting a different sum for it is a
// commission fault — detected before the sub-job completes, and even if
// that replica is later cancelled. Reports from superseded attempts
// (stragglers killed by a retry, racing their cancellation) are dropped
// before touching the matcher: storing them would silently regrow state
// for sids the Forget sweep already reclaimed.
func (c *Controller) onDigest(r digest.Report) {
	cs := c.sidIndex[r.Key.SID]
	if cs == nil || cs.sid != r.Key.SID {
		return
	}
	c.reports++
	deviants := c.matcher.Observe(r)
	if r.Key.Point == mapred.CkptPoint {
		c.maybeCheckpoint(cs, r.Key)
	}
	for _, rep := range deviants {
		if rep >= 0 && rep < len(cs.replicas) {
			c.markFaulty(cs, cs.replicas[rep])
		}
	}
}

// onJobDone advances replica completion and verification.
func (c *Controller) onJobDone(js *mapred.JobState) {
	ref, ok := c.jobRef[js.Spec.ID]
	if !ok {
		return
	}
	cs := c.clusters[ref[0]]
	if js.Spec.SID != cs.sid {
		return // stale attempt
	}
	rs := cs.replicas[ref[1]]
	for n := range js.Nodes {
		rs.nodes[n] = true
	}
	rs.done++
	if rs.done < len(rs.jobIDs) {
		return
	}
	rs.completed = true
	c.Susp.RecordJob(rs.nodes.Sorted())
	c.checkVerify(cs)
	if c.Cfg.Offline && !cs.verified {
		for _, d := range c.clusters {
			if contains(d.upstream, cs.id) {
				c.tryLaunch(d)
			}
		}
	}
}

// checkVerify applies the verification rule for the sub-graph's policy.
// Full: f+1 completed replicas with identical digest vectors verify the
// sub-graph; deviants are commission faults (§4.1, §4.3). Quiz/deferred
// delegate to checkVerifyPolicy.
func (c *Controller) checkVerify(cs *clusterState) {
	if cs.verified {
		return
	}
	if cs.policy == PolicyQuiz || cs.policy == PolicyDeferred {
		c.checkVerifyPolicy(cs)
		return
	}
	var completed []int
	for _, rs := range cs.replicas {
		if rs.completed {
			completed = append(completed, rs.idx)
		}
	}
	majority, deviants, ok := c.matcher.Agreement(cs.sid, completed)
	if !ok {
		if len(completed) == cs.r {
			// Everyone replied and still no f+1 agreement: rerun with a
			// higher replication degree.
			c.retry(cs, 0)
		}
		return
	}
	c.markVerified(cs, majority[0], deviants)
}

// markVerified finalizes a sub-graph: records the winner, punishes
// deviants, frees unfinished replicas, propagates downstream and sweeps
// superseded attempts' verifier state.
func (c *Controller) markVerified(cs *clusterState, winner int, deviants []int) {
	cs.verified = true
	cs.verifiedAt = c.Eng.Now()
	cs.winner = winner
	cs.winnerFP = c.matcher.Fingerprint(cs.sid, cs.winner)
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditVerify, Replica: winner}, int64(len(deviants)))
	for _, rep := range deviants {
		c.markFaulty(cs, cs.replicas[rep])
	}
	// Unfinished replicas are no longer needed; their slots free up.
	for _, rs := range cs.replicas {
		if !rs.completed {
			c.killReplica(rs)
		}
	}
	// Propagate downstream: restart consumers that optimistically read a
	// deviant replica, launch the rest.
	for _, d := range c.clusters {
		if !contains(d.upstream, cs.id) {
			continue
		}
		src, launched := d.sources[cs.id]
		if launched && d.launched && !c.sourceMatchesWinner(cs, src) {
			c.restart(d)
		}
		c.tryLaunch(d)
	}
	// The restart decisions above were the last readers of superseded
	// attempts' digest vectors (sourceMatchesWinner fingerprints old
	// source sids); reclaim them now.
	for _, sid := range cs.staleSids {
		c.forgetSID(sid)
	}
	cs.staleSids = nil
}

// quizReplica is the replica index quiz re-executions report under; the
// primary is always 0 under quiz/deferred (r=1), and keeping quizzes at
// a fixed non-zero index lets the matcher compare the two vectors with
// the machinery it already has. The online Observe check never sees
// an f+1 class among {primary, quiz} with f >= 1, so quiz evidence is
// judged only by QuizAgrees.
const quizReplica = 1

// checkVerifyPolicy runs when the primary replica of a quiz/deferred
// sub-graph completes: audit the storage boundaries, then either verify
// optimistically (deferred) or hold verification until the quiz set
// agrees (quiz). Any mismatch escalates to full replication.
func (c *Controller) checkVerifyPolicy(cs *clusterState) {
	rs := cs.replicas[0]
	if !rs.completed {
		return
	}
	if rs.faulty {
		// Flagged before completion (e.g. by a downstream conflict);
		// don't verify a known-bad primary.
		c.escalate(cs, "primary replica flagged during execution")
		return
	}
	clean, badUpstreams := c.auditIO(cs)
	if len(badUpstreams) > 0 {
		// Our io-in digest conflicts with what an upstream primary
		// claimed to have stored: the *upstream* output is suspect
		// (its storage write or its deferred verification). Escalating
		// it restarts the cascade, which tears this attempt down too.
		for _, u := range badUpstreams {
			c.markFaulty(u, u.replicas[0])
			c.escalate(u, fmt.Sprintf("downstream sub-graph c%d read data conflicting with the stored-output digest", cs.id))
		}
		return
	}
	if !clean {
		// In-cluster boundary mismatch: what a job read back from the
		// DFS is not what the producing job claims to have written.
		c.markFaulty(cs, rs)
		c.escalate(cs, "storage boundary digest mismatch")
		return
	}
	if cs.policy == PolicyDeferred {
		// Optimistic: downstream proceeds now; quizzes may still revoke.
		c.markVerified(cs, 0, nil)
	}
	c.startQuiz(cs)
	if cs.quizPending == 0 && !cs.verified && !cs.failed && cs.launched {
		// Nothing quizzable (empty sub-graph) — boundary audits are the
		// only evidence available, and they passed.
		c.markVerified(cs, 0, nil)
	}
}

// auditIO cross-checks storage-boundary audit digests for the primary of
// an audited sub-graph. In-cluster: each consumed input's io-in digest
// must equal the producing job's io-out digest (clean=false otherwise).
// Cross-cluster: the io-in digest must equal the io-out digest the
// source replica reported under its own sid; a conflict implicates the
// upstream, returned in badUpstreams. Pairs where either side is absent
// (unaudited upstream policy, raw script inputs) are skipped.
func (c *Controller) auditIO(cs *clusterState) (clean bool, badUpstreams []*clusterState) {
	clean = true
	blamed := make(map[int]bool)
	for _, tmpl := range cs.jobs {
		for i := range tmpl.Inputs {
			prod, produced := c.producedBy[tmpl.Inputs[i].Path]
			if !produced {
				continue
			}
			inKey := digest.Key{SID: cs.sid, Point: mapred.AuditIOInPoint,
				Task: fmt.Sprintf("%s/in%d", tmpl.ID, i)}
			inSum, haveIn := c.matcher.Lookup(cs.sid, 0, inKey)
			if !haveIn {
				continue
			}
			pc := c.clusterOf[prod]
			if pc == cs.id {
				outKey := digest.Key{SID: cs.sid, Point: mapred.AuditIOOutPoint, Task: prod}
				outSum, haveOut := c.matcher.Lookup(cs.sid, 0, outKey)
				if haveOut && outSum != inSum {
					clean = false
				}
				continue
			}
			src, haveSrc := cs.sources[pc]
			if !haveSrc || src.replica < 0 {
				continue
			}
			outKey := digest.Key{SID: src.sid, Point: mapred.AuditIOOutPoint, Task: prod}
			outSum, haveOut := c.matcher.Lookup(src.sid, src.replica, outKey)
			if haveOut && outSum != inSum && !blamed[pc] {
				blamed[pc] = true
				badUpstreams = append(badUpstreams, c.clusters[pc])
			}
		}
	}
	return clean, badUpstreams
}

// startQuiz samples the primary's committed tasks and re-executes each on
// the trusted tier; the recomputed digests flow back through onDigest
// tagged as quizReplica. Sampling never leaves a sub-graph unquizzed: if
// the draw comes up empty, the terminal job's first task is quizzed.
func (c *Controller) startQuiz(cs *clusterState) {
	rs := cs.replicas[0]
	sid := cs.sid
	type pick struct{ jobID, tid string }
	var picks []pick
	for ji := range cs.launchJobs {
		js := c.Eng.Job(rs.jobIDs[ji])
		if js == nil || !js.Done {
			continue
		}
		for _, tid := range js.TaskIDs() {
			if quizPick(sid, cs.launchJobs[ji].ID, tid, c.Cfg.QuizFraction) {
				picks = append(picks, pick{rs.jobIDs[ji], tid})
			}
		}
	}
	if len(picks) == 0 && len(rs.jobIDs) > 0 {
		last := rs.jobIDs[len(rs.jobIDs)-1]
		if js := c.Eng.Job(last); js != nil && js.Done {
			if tids := js.TaskIDs(); len(tids) > 0 {
				picks = append(picks, pick{last, tids[0]})
			}
		}
	}
	for _, p := range picks {
		err := c.Eng.Requiz(p.jobID, p.tid, quizReplica, c.onDigest,
			func() { c.onQuizDone(cs, sid) })
		if err != nil {
			c.fail(fmt.Errorf("core: quiz %s/%s: %w", p.jobID, p.tid, err))
			return
		}
		cs.quizPending++
	}
}

// onQuizDone fires as each quiz re-execution commits its digests.
func (c *Controller) onQuizDone(cs *clusterState, sid string) {
	if cs.sid != sid || cs.failed {
		return // quiz of a superseded attempt straggling in
	}
	cs.quizPending--
	if cs.quizFailed {
		return // already escalated on an earlier quiz of this attempt
	}
	if !c.matcher.QuizAgrees(sid, 0, quizReplica) {
		// A trusted re-execution of the primary's own task, against the
		// primary's own stored inputs, produced different records: the
		// primary computed wrongly (commission), and with r=1 there is
		// no honest majority to fall back on — rerun at full r.
		cs.quizFailed = true
		c.markFaulty(cs, cs.replicas[0])
		c.escalate(cs, "quiz re-execution digest mismatch")
		return
	}
	if cs.quizPending == 0 && cs.policy == PolicyQuiz && !cs.verified {
		c.markVerified(cs, 0, nil)
	}
}

// escalate abandons the cheap policy for a sub-graph that produced fault
// evidence and reruns it under full replication. An already-verified
// (deferred) sub-graph is revoked via the restart cascade so consumers
// of its optimistic output are torn down with it; an unverified one goes
// through the ordinary retry machinery.
func (c *Controller) escalate(cs *clusterState, detail string) {
	if cs.failed {
		return
	}
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditEscalate, Replica: -1, Detail: detail}, 0)
	if cs.verified {
		cs.policy = PolicyFull
		if cs.r < c.Cfg.R {
			cs.r = c.Cfg.R
		}
		c.restart(cs)
		return
	}
	c.retry(cs, 0)
}

// forgetSID reclaims every trace of one sub-graph attempt: the verifier's
// digest vectors, the controller's sid index and the engine's job and
// scheduler-affinity records.
func (c *Controller) forgetSID(sid string) {
	c.matcher.Forget(sid)
	delete(c.sidIndex, sid)
	c.Eng.ForgetSID(sid)
}

// teardownRun sweeps all remaining attempts after the simulation drains;
// verified winners' outputs live in the DFS, so nothing referenced by
// Result is touched.
func (c *Controller) teardownRun() {
	sids := make([]string, 0, len(c.sidIndex))
	for sid := range c.sidIndex {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	for _, sid := range sids {
		c.forgetSID(sid)
	}
	for _, cs := range c.clusters {
		for _, sid := range cs.staleSids {
			c.forgetSID(sid)
		}
		cs.staleSids = nil
		c.dropCkpts(cs)
	}
	// The forgetSID sweep above folded every remaining sid; with the run
	// drained no late ledger charge can arrive, so the tombstones that
	// route such charges are dead weight — drop them to keep ledger map
	// sizes at baseline across sequential runs.
	c.Eng.Ledger.DropFolds()
}

// sourceMatchesWinner reports whether a consumed source replica produced
// the same digest vector as the verified winner (same attempt or not).
func (c *Controller) sourceMatchesWinner(cs *clusterState, src sourceRef) bool {
	if src.verified || (src.sid == cs.sid && src.replica == cs.winner) {
		return true
	}
	return c.matcher.Fingerprint(src.sid, src.replica) == cs.winnerFP
}

// liveNodes unions the nodes recorded at replica-job completion with the
// engine's live view (tasks assigned to still-running or hung jobs), so
// omission faults attribute to the nodes actually involved.
func (c *Controller) liveNodes(rs *repState) NodeSet {
	s := rs.nodes.Clone()
	for _, id := range rs.jobIDs {
		if js := c.Eng.Job(id); js != nil {
			for n := range js.Nodes {
				s[n] = true
			}
		}
	}
	return s
}

// markFaulty records a commission-faulty replica: suspicion for every
// node in its job cluster and a report to the fault analyzer.
func (c *Controller) markFaulty(cs *clusterState, rs *repState) {
	if rs.faulty {
		return
	}
	rs.faulty = true
	c.faultyReps++
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditMismatch, Replica: rs.idx, Cause: analyze.CauseCommission}, 0)
}

// record is the one writer of what the control tier keeps about a
// decision on a sub-graph attempt; nothing else in this package writes
// these stores, so they cannot fall out of step. ev is the decision as
// the audit trail holds it (Replica -1 for none); the ledger is told what
// the attempt's CPU bought, the board what /jobs serves once teardown
// forgot the sid, the tracer the timeline (n: deviants outvoted, records
// saved), the suspicion table and fault analyzer the blame.
func (c *Controller) record(cs *clusterState, ev analyze.AuditEvent, n int64) {
	eng, sid, rep := c.Eng, cs.sid, int64(ev.Replica)
	ev.SID = sid
	if ev.Kind == analyze.AuditMismatch {
		ev.Nodes = c.liveNodes(cs.replicas[ev.Replica]).Sorted()
	}
	c.audit.Record(ev)
	b, tr, now := eng.Board, eng.Trace, eng.Now()
	switch ev.Kind {
	case analyze.AuditLaunch: // Detail: the attempt this one supersedes
		if ev.Detail != "" {
			eng.Ledger.Supersede(ev.Detail)
			b.UpsertSID(ev.Detail, func(s *obs.SIDStatus) { s.State = "superseded" })
		}
		eng.Ledger.Launch(sid, cs.policy.String())
		b.UpsertSID(sid, func(s *obs.SIDStatus) {
			s.Cluster, s.Attempt, s.Replicas = cs.id, cs.totalTries, cs.r
			s.Policy, s.State, s.Winner = cs.policy.String(), "running", -1
		})
	case analyze.AuditVerify:
		eng.Ledger.Verified(sid, ev.Replica)
		b.UpsertSID(sid, func(s *obs.SIDStatus) { s.State, s.Winner = "verified", ev.Replica })
		tr.Record("verify", "verifier", sid, cs.launchedAtV, now, obs.AI("winner", rep), obs.AI("deviants", n))
	case analyze.AuditFail:
		eng.Ledger.Supersede(sid)
		b.UpsertSID(sid, func(s *obs.SIDStatus) { s.State = "failed" })
	case analyze.AuditCheckpoint: // Detail: the template job saved
		tr.Instant("ckpt", "verifier", "save "+sid+"/"+ev.Detail, now, obs.AI("records", n), obs.AI("replica", rep))
	case analyze.AuditMismatch:
		c.Susp.RecordFault(ev.Nodes)
		if ev.Cause == analyze.CauseCommission { // a timeout over-approximates (§4.3): suspicion only
			c.FA.Report(NewNodeSet(ev.Nodes...))
			tr.Instant("suspicion", "verifier", "fault "+sid, now, obs.AI("replica", rep), obs.AI("nodes", int64(len(ev.Nodes))))
			b.UpsertSID(sid, func(s *obs.SIDStatus) {
				s.FaultyReplicas = append(s.FaultyReplicas, ev.Replica)
				for _, n := range ev.Nodes {
					s.FaultyNodes = append(s.FaultyNodes, string(n))
				}
			})
		}
	}
	if b != nil && ev.Cause != 0 { // blame moved, or a timeout found none to move: refresh what /jobs serves
		h := c.Susp.Histogram()
		st := obs.SuspicionStatus{Low: h[Low], Med: h[Med], High: h[High]}
		for _, n := range c.Susp.Suspects() {
			st.Suspects = append(st.Suspects, string(n))
			if c.Susp.Excluded(n) {
				st.Excluded = append(st.Excluded, string(n))
			}
		}
		b.SetSuspicion(st)
	}
}

func (c *Controller) killReplica(rs *repState) {
	for _, id := range rs.jobIDs {
		c.Eng.KillJob(id)
	}
}

// retry re-initiates a sub-graph with r+1 replicas and a doubled timeout
// (§4.2 step 6). On the timeout path (cause) the incomplete replicas'
// nodes are marked suspicious first (omission).
func (c *Controller) retry(cs *clusterState, cause analyze.AuditCause) {
	if cs.verified || cs.failed {
		return
	}
	if cause == analyze.CauseTimeout {
		for _, rs := range cs.replicas {
			if !rs.completed {
				c.record(cs, analyze.AuditEvent{Kind: analyze.AuditMismatch, Replica: rs.idx, Cause: cause}, 0)
			}
		}
	}
	for _, rs := range cs.replicas {
		c.killReplica(rs)
	}
	if cs.totalTries >= c.Cfg.MaxAttempts {
		c.failCluster(cs, cause)
		// Exhaustion outside a restart cascade: consumers launched against
		// this sub-graph's optimistic output must not keep running.
		c.restart(cs)
		return
	}
	cs.attempt++
	if cs.policy == PolicyQuiz || cs.policy == PolicyDeferred {
		// The cheap policy saw fault evidence (or timed out): rerun at
		// full replication before growing r beyond the configured degree.
		cs.policy = PolicyFull
		if cs.r < c.Cfg.R {
			cs.r = c.Cfg.R
		} else {
			cs.r++
		}
	} else {
		cs.r++
		if len(cs.launchJobs) < len(cs.jobs) {
			// The attempt that failed re-executed only a checkpointed
			// suffix, so this escalation is scoped to the suffix; a later
			// full re-execution sheds it (see tryLaunch).
			cs.suffixBoost++
		}
	}
	cs.timeoutUs *= 2
	cs.launched = false
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRetry, Replica: -1, Cause: cause}, 0)
	c.tryLaunch(cs)
}

// restart re-runs a sub-graph (same r) because its optimistic input came
// from a replica later found deviant; consumers restart transitively.
//
// The cascade is collected up front (breadth-first, deduplicated) instead
// of by recursion: a consumer reached through two upstream paths in one
// event is killed and charged exactly once, and — the critical ordering —
// every member of the cascade is torn down even when one of them exhausts
// MaxAttempts. The recursive version checked exhaustion before visiting
// consumers and returned early, leaving already-launched downstream
// sub-graphs running against the dead attempt's stale optimistic output,
// where they could still reach "verified".
func (c *Controller) restart(root *clusterState) {
	affected := []*clusterState{root}
	seen := map[int]bool{root.id: true}
	for i := 0; i < len(affected); i++ {
		for _, d := range c.clusters {
			if contains(d.upstream, affected[i].id) && d.launched && !seen[d.id] {
				seen[d.id] = true
				affected = append(affected, d)
			}
		}
	}
	for _, cs := range affected {
		if cs.failed {
			continue
		}
		for _, rs := range cs.replicas {
			c.killReplica(rs)
		}
		// The cascade exists because upstream data lineage is suspect;
		// checkpoints derived from it must not shortcut the re-run. (The
		// per-entry source-signature check already rejects them — fresh
		// attempts get fresh sids — but dropping reclaims the files.)
		c.dropCkpts(cs)
		wasLaunched := cs.launched
		cs.verified = false
		cs.launched = false
		if wasLaunched {
			cs.attempt++
			if cs.totalTries >= c.Cfg.MaxAttempts {
				c.failCluster(cs, 0)
				continue
			}
			c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRestart, Replica: -1}, 0)
		}
	}
	// Relaunch survivors upstream-first; consumers of a still-incomplete
	// (or failed) upstream defer inside tryLaunch and are re-triggered by
	// the normal completion propagation.
	for _, cs := range affected {
		c.tryLaunch(cs)
	}
}

// failCluster marks a sub-graph permanently failed and surfaces the
// run-level error. Its consumers are not torn down here — the restart
// cascade that discovered the exhaustion already holds them in its
// worklist, and unlaunched consumers are fenced by sourcesReady.
func (c *Controller) failCluster(cs *clusterState, cause analyze.AuditCause) {
	cs.failed = true
	c.dropCkpts(cs)
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditFail, Replica: -1, Cause: cause}, 0)
	c.fail(fmt.Errorf("core: sub-graph c%d exhausted %d attempts", cs.id, cs.totalTries))
}

// onTimeout fires when a sub-graph attempt exceeds the verifier timeout.
func (c *Controller) onTimeout(cs *clusterState, sid string) {
	if cs.sid != sid || cs.verified || cs.failed || !cs.launched {
		return
	}
	c.retry(cs, analyze.CauseTimeout)
}

// RunPlain executes a script without replication or verification — the
// "Pure Pig" baseline of §6.1 — and returns the virtual latency.
func RunPlain(eng *mapred.Engine, script string) (int64, error) {
	return RunPlainOpts(eng, script, mapred.CompileOptions{NumReduces: 2})
}

// RunPlainOpts is RunPlain with explicit compile options (the CLI's
// -reduces).
func RunPlainOpts(eng *mapred.Engine, script string, opts mapred.CompileOptions) (int64, error) {
	plan, err := pig.Parse(script)
	if err != nil {
		return 0, err
	}
	jobs, err := mapred.Compile(plan, opts)
	if err != nil {
		return 0, err
	}
	start := eng.Now()
	states := make([]*mapred.JobState, 0, len(jobs))
	for _, j := range jobs {
		js, err := eng.Submit(j)
		if err != nil {
			return 0, err
		}
		states = append(states, js)
	}
	eng.Run()
	if bad := eng.Fault; bad != nil {
		return 0, fmt.Errorf("core: trusted storage failed: %w", bad)
	}
	var end int64
	for _, js := range states {
		if !js.Done {
			return 0, fmt.Errorf("core: plain job %s incomplete", js.Spec.ID)
		}
		if js.DoneTime > end {
			end = js.DoneTime
		}
	}
	return end - start, nil
}
