package core

import (
	"fmt"
	"slices"
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

// repState is what the controller keeps of one replica of an attempt:
// where it writes, what it submitted, and the nodes its jobs ran on.
type repState struct {
	idx    int
	prefix string
	jobIDs []string
	nodes  NodeSet
}

// clusterState is what the controller keeps of one sub-graph, over the
// verifier's verdict state of it: read here, written only by apply.
type clusterState struct {
	*verdict
	jobs     []*mapred.JobSpec // templates, topological
	terminal bool
	// hasInDep marks template IDs some other job of the SAME cluster
	// depends on; only those are checkpoint-eligible (boundary jobs must
	// always re-execute so a recovery suffix is never empty).
	hasInDep map[string]bool

	launchedAtV int64
	verifiedAt  int64
	replicas    []*repState
	// launchJobs is the template subset the current attempt actually
	// submitted (all of cs.jobs unless checkpoints covered a prefix);
	// repState.jobIDs and quiz sampling index it.
	launchJobs []*mapred.JobSpec
	// quizzes counts the quizzes the current attempt started.
	quizzes int
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

	v      *verifier
	runSeq int
	audit  *analyze.AuditTrail
	// acting is set while decisions are carried out: a launch's Submit
	// files digests synchronously, and their decisions join the stream.
	acting bool

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
	c := &Controller{Eng: eng, Cfg: cfg, Susp: susp, FA: fa, v: newVerifier(cfg)}
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
			c.launch(cs)
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
		DigestReports:  c.v.reports,
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
	var subs []verdict
	rootIdx := make(map[string]int)
	for _, j := range jobs { // template order is topological
		root := find(j.ID)
		idx, ok := rootIdx[root]
		if !ok {
			idx = len(c.clusters)
			rootIdx[root] = idx
			c.clusters = append(c.clusters, &clusterState{})
			subs = append(subs, verdict{id: idx})
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
		s := &subs[jc]
		for _, d := range j.Deps {
			if dc := c.clusterOf[d]; dc != jc {
				if !slices.Contains(s.upstream, dc) {
					s.upstream = append(s.upstream, dc)
				}
			} else {
				cs := c.clusters[jc]
				if cs.hasInDep == nil {
					cs.hasInDep = make(map[string]bool)
				}
				cs.hasInDep[d] = true
			}
		}
		for i, in := range j.Inputs {
			if prod, ok := c.producedBy[in.Path]; ok {
				s.audits = append(s.audits, auditPair{in: fmt.Sprintf("%s/in%d", j.ID, i), out: prod, from: c.clusterOf[prod]})
			}
		}
	}
	c.v.reset(subs)
	for i, cs := range c.clusters {
		cs.verdict = &c.v.subs[i]
	}
	c.ckpts = make(map[int]map[string]*ckptEntry)
	c.faultyReps = 0
	c.runErr = nil
}

// launch starts an attempt of cs: the controller chooses its policy,
// sources and checkpointed suffix, tells the verifier, then records,
// submits and arms the attempt's timer.
func (c *Controller) launch(cs *clusterState) {
	p, r := cs.policy, cs.r
	if p == 0 {
		p = c.decidePolicy()
		if p != PolicyFull {
			// Healthy history: one primary replica; verification comes
			// from quiz re-execution and storage-boundary audits.
			r = 1
		}
	}
	cs.launchedAtV = c.Eng.Now()
	superseded := cs.sid
	sid := fmt.Sprintf("run%d-c%d-a%d", c.runSeq, cs.id, cs.attempt)
	sources := make(map[int]sourceRef)
	for _, u := range cs.upstream {
		up := c.clusters[u]
		if up.verified {
			sources[u] = sourceRef{
				sid: up.sid, replica: up.winner,
				prefix: up.replicas[up.winner].prefix, verified: true,
			}
		} else {
			rep := up.firstCompleted()
			sources[u] = sourceRef{
				sid: up.sid, replica: rep,
				prefix: up.replicas[rep].prefix,
			}
		}
	}
	// Checkpoint-granular recovery: compute the suffix this attempt must
	// actually execute. skip maps template IDs whose f+1-agreed output an
	// earlier attempt persisted (and whose source signature still
	// matches); their consumers read the checkpoint file instead.
	skip, run := c.coveredTemplates(cs, p, sources)
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
				c.ckptHit(e, r)
			}
		}
	}
	// The launch event resumes the verifier's pending work, whose
	// decisions wait in the stream; none of it re-sizes this attempt, so
	// cs.r and cs.timeoutUs below are the ones just launched.
	c.v.apply(event{kind: evLaunch, sub: cs.id, sid: sid, policy: p, r: r,
		jobs: len(cs.launchJobs), suffix: skip != nil, sources: sources})
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditLaunch, Replica: -1, Detail: superseded}, 0)
	cs.replicas = make([]*repState, cs.r)
	for rep := range cs.r {
		rs := &repState{idx: rep, nodes: make(NodeSet)}
		rs.prefix = fmt.Sprintf("x/%s/r%d", sid, rep)
		cs.replicas[rep] = rs
		// Attempt-scoped sids already give every launch a fresh namespace;
		// the purge makes the no-append guarantee unconditional — a
		// relaunch must never Append onto a dead attempt's partial records
		// even if a prefix were ever reused.
		c.Eng.FS.DeleteTree(rs.prefix)
		for _, tmpl := range cs.launchJobs {
			spec := c.rewriteJob(cs, rs, tmpl, skip)
			rs.jobIDs = append(rs.jobIDs, spec.ID)
			if _, err := c.Eng.Submit(spec); err != nil {
				c.fail(fmt.Errorf("core: submit %s: %w", spec.ID, err))
				return
			}
		}
	}
	// The timer is keyed by the attempt's sid, so a stale timer from an
	// earlier attempt can never fire a retry against a newer one.
	c.Eng.After(cs.timeoutUs, func() { c.dispatch(event{kind: evTimeout, sid: sid}) })
}

// ckptHit accounts one checkpoint-covered job at launch: the skipping
// attempt avoids recomputing its output on every one of its r replicas.
func (c *Controller) ckptHit(e *ckptEntry, r int) {
	c.ckptStats.Hits++
	c.ckptStats.BytesReclaimed += e.bytes * int64(r)
	c.obsCkptHits.Inc()
	c.obsCkptBytesReclaimed.Add(e.bytes * int64(r))
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

// dispatch hands ev to the verifier and carries out what it decided.
func (c *Controller) dispatch(ev event) {
	if c.v.apply(ev) {
		c.act()
	}
}

// onDigest hands the verifier each digest as it streams in from the
// untrusted tier.
func (c *Controller) onDigest(r digest.Report) {
	c.dispatch(event{kind: evDigest, sid: r.Key.SID, report: r})
}

// onJobDone hands the verifier a replica's finished job. The replica's
// nodes join its job cluster, and when the job was its last the
// suspicion table counts the cluster before any verdict on it acts.
func (c *Controller) onJobDone(js *mapred.JobState) {
	sid, rep := js.Spec.SID, js.Spec.Replica
	if !c.v.apply(event{kind: evJobDone, sid: sid, replica: rep}) {
		return
	}
	cs := c.clusters[c.v.bySID[sid]]
	rs := cs.replicas[rep]
	for n := range js.Nodes {
		rs.nodes[n] = true
	}
	if cs.reps[rep].completed {
		c.Susp.RecordJob(rs.nodes.Sorted())
	}
	c.act()
}

// act carries out the verifier's decisions in the order it made them.
// A launch answers with an event whose decisions join the same stream,
// so only the outermost call drains it.
func (c *Controller) act() {
	if c.acting {
		return
	}
	c.acting = true
	for i := 0; i < len(c.v.out); i++ {
		c.do(c.v.out[i])
	}
	c.v.out = c.v.out[:0]
	c.acting = false
}

// do carries out one decision.
func (c *Controller) do(d decision) {
	cs := c.clusters[d.sub]
	switch d.kind {
	case dFaulty:
		if d.cause == analyze.CauseCommission {
			c.faultyReps++
		}
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditMismatch, Replica: d.replica, Cause: d.cause}, 0)
	case dVerified:
		cs.verifiedAt = c.Eng.Now()
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditVerify, Replica: d.replica}, int64(d.n))
		// Unfinished replicas are no longer needed; their slots free up.
		c.kill(cs)
	case dRetry:
		c.kill(cs)
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRetry, Replica: -1, Cause: d.cause}, 0)
	case dEscalate:
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditEscalate, Replica: -1, Detail: d.detail}, 0)
	case dRestart, dFail:
		c.kill(cs)
		// A cascade exists because upstream data lineage is suspect;
		// checkpoints derived from it must not shortcut the re-run.
		c.dropCkpts(cs)
		if d.kind == dRestart {
			c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRestart, Replica: -1}, 0)
			break
		}
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditFail, Replica: -1, Cause: d.cause}, 0)
		c.fail(fmt.Errorf("core: sub-graph c%d exhausted %d attempts", cs.id, cs.totalTries))
	case dCheckpointAgreed:
		c.maybeCheckpoint(cs, d.key, d.sum, d.reps)
	case dQuiz:
		c.startQuiz(cs)
	case dLaunch:
		c.launch(cs)
	case dTooWide:
		c.fail(fmt.Errorf("core: sub-graph c%d needs %d replicas, the verifier tallies at most %d per attempt", cs.id, d.n, MaxReplicas))
	case dForget:
		c.Eng.ForgetSID(d.detail)
	}
}

// quizReplica is the replica index quiz re-executions report under; the
// primary is always 0 under quiz/deferred (r=1), and keeping quizzes at
// a fixed non-zero index lets the matcher compare the two vectors with
// the machinery it already has. The online Observe check never sees
// an f+1 class among {primary, quiz} with f >= 1, so quiz evidence is
// judged only by QuizAgrees.
const quizReplica = 1

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
	cs.quizzes = 0
	for _, p := range picks {
		err := c.Eng.Requiz(p.jobID, p.tid, quizReplica, c.onDigest,
			func() { c.dispatch(event{kind: evQuiz, sid: sid, quizzes: cs.quizzes}) })
		if err != nil {
			c.fail(fmt.Errorf("core: quiz %s/%s: %w", p.jobID, p.tid, err))
			return
		}
		cs.quizzes++
	}
}

// teardownRun sweeps all remaining attempts after the simulation drains:
// the digest vectors, scheduler affinity and job records are
// request-scoped, and a controller serving a stream of Runs must not
// accumulate them. The run is over, so this is no event: the next run
// resets the verifier. Verified winners' outputs live in the DFS, so nothing
// referenced by Result is touched.
func (c *Controller) teardownRun() {
	sids := make([]string, 0, len(c.v.bySID))
	for sid := range c.v.bySID {
		sids = append(sids, sid)
	}
	sort.Strings(sids)
	for _, sid := range sids {
		c.v.matcher.Forget(sid)
		delete(c.v.bySID, sid)
		c.Eng.ForgetSID(sid)
	}
	for _, cs := range c.clusters {
		c.dropCkpts(cs)
	}
	// The sweep above folded every remaining sid; with the run drained no
	// late ledger charge can arrive, so the tombstones that route such
	// charges are dead weight — drop them to keep ledger map sizes at
	// baseline across sequential runs.
	c.Eng.Ledger.DropFolds()
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

func (c *Controller) kill(cs *clusterState) {
	for _, rs := range cs.replicas {
		for _, id := range rs.jobIDs {
			c.Eng.KillJob(id)
		}
	}
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
