// Package core implements ClusterBFT's control tier over the untrusted
// engine (paper §4): the request handler (graph analysis, job
// initiation, replication), the Controller that carries out the
// decisions of package verify's verifier, checkpoint-granular recovery,
// and the resource manager's overlap-maximizing task scheduler.
package core

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/verify"
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
	// marks; 0 verifies final outputs only (the paper's "P" baseline of
	// Table 3: any fault re-runs the whole script), and -1 marks every
	// candidate vertex (the "Individual" configuration of Fig 14).
	Points int
	// ForcePointAliases bypasses the marker function and places
	// verification points at the named relation aliases (used by the
	// Fig 9/10 sweeps, which vary the instrumented operator).
	ForcePointAliases []string
	// Model is the adversary model restricting candidate points.
	Model analyze.Model
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
	// per sub-graph from suspicion history. See package verify.
	VerifyPolicy verify.Policy
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
	case c.R > verify.MaxReplicas:
		return fmt.Errorf("core: r = %d replicas, the verifier tallies at most %d per attempt", c.R, verify.MaxReplicas)
	}
	return nil
}

// params is the verifier's share of c.
func (c Config) params() verify.Params {
	return verify.Params{F: c.F, R: c.R, MaxAttempts: c.MaxAttempts, TimeoutUs: c.TimeoutUs,
		Offline: c.Offline, Policy: c.VerifyPolicy, QuizFraction: c.QuizFraction}
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

// replicaPath is where replica rep of attempt sid keeps rel: under
// x/<sid>/r<rep>, which it is itself when rel is "".
func replicaPath(sid string, rep int, rel string) string {
	if rel == "" {
		return "x/" + sid + "/r" + strconv.Itoa(rep)
	}
	return "x/" + sid + "/r" + strconv.Itoa(rep) + "/" + rel
}

// clusterState is what the controller keeps of one sub-graph beside the
// verifier's verdict state of it, which only Apply writes.
type clusterState struct {
	sub      *verify.Verdict
	terminal bool

	// plan is the attempt the controller launched last, which every
	// decision on the sub-graph until the next DLaunch is about. Replica
	// rep of it runs template t as job replicaPath(plan.SID, rep, t.ID).
	plan        verify.LaunchPlan
	launchedAtV int64
	verifiedAt  int64
}

// tmplJob is a template job as the controller keeps it: the sub-graph it
// belongs to and the compiled spec its replicas clone.
type tmplJob struct {
	cluster int
	spec    *mapred.JobSpec
}

// Controller is the trusted control tier: request handler + the hands of
// a verify.Verifier + resource-manager bookkeeping, driving an untrusted
// mapred.Engine. A controller owns its engine's callbacks. Suspicion
// state persists across Run calls, which is how fault isolation sharpens
// over a stream of jobs.
type Controller struct {
	Eng  *mapred.Engine
	Cfg  Config
	Susp *verify.SuspicionTable
	FA   *verify.FaultAnalyzer

	v      *verify.Verifier
	runSeq int
	audit  *analyze.AuditTrail
	// acting is set while decisions are carried out: a launch's Submit
	// files digests synchronously and a checkpoint reports its landing,
	// and those events' decisions join the stream.
	acting bool

	ckptStats CheckpointStats
	// checkpoint counters, registered only when Cfg.Checkpoint is set so
	// the /metrics surface of legacy configs stays byte-identical.
	obsCkptSaves          *obs.Counter
	obsCkptHits           *obs.Counter
	obsCkptBytesWritten   *obs.Counter
	obsCkptBytesReclaimed *obs.Counter

	// run-scoped state
	jobs       map[string]tmplJob // by template job ID
	producedBy map[string]string
	clusters   []*clusterState
	faultyReps int
	runErr     error
}

// NewController wires a controller to an engine. susp and fa may be nil
// for fresh state; from here on its verifier is their only writer.
func NewController(eng *mapred.Engine, cfg Config, susp *verify.SuspicionTable, fa *verify.FaultAnalyzer) *Controller {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.Model == 0 {
		cfg.Model = analyze.Weak
	}
	if cfg.VerifyPolicy == 0 {
		cfg.VerifyPolicy = verify.PolicyFull
	}
	if cfg.QuizFraction <= 0 {
		cfg.QuizFraction = 0.25
	}
	if cfg.QuizFraction > 1 {
		cfg.QuizFraction = 1
	}
	if susp == nil {
		susp = verify.NewSuspicionTable(cfg.SuspicionThreshold)
	}
	if fa == nil {
		fa = verify.NewFaultAnalyzer(cfg.F)
	}
	nodes := make([]cluster.NodeID, 0, len(eng.Cluster.Nodes()))
	for _, n := range eng.Cluster.Nodes() {
		nodes = append(nodes, n.ID)
	}
	c := &Controller{Eng: eng, Cfg: cfg, Susp: susp, FA: fa, v: verify.New(cfg.params(), susp, fa, nodes)}
	eng.DigestChunk = cfg.DigestChunk
	eng.DigestSink = c.onDigest
	eng.OnJobDone = c.onJobDone
	eng.OnAssign = c.onAssign
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
// land in trail with the evidence that caused them. The tables log into
// the verifier, which hands each line over as a decision in its place
// among the others. Nil detaches.
func (c *Controller) AttachAudit(trail *analyze.AuditTrail) {
	c.audit = trail
	c.v.Attach(trail != nil)
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
	if b := c.Eng.Board; b != nil { // the method value allocates
		b.ReadSuspicionFrom(c.suspicion)
	}

	start := c.Eng.Now()
	c.dispatch(verify.Event{Kind: verify.EvStart})
	c.Eng.Run()
	if bad := c.Eng.Fault; bad != nil {
		c.fail(fmt.Errorf("core: trusted storage failed: %w", bad))
	}
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
		DigestReports:  c.v.Reports,
		Metrics:        c.Eng.Metrics,
	}
	for _, cs := range c.clusters {
		res.Attempts += cs.sub.TotalTries
		if !cs.sub.Verified {
			res.Verified = false
			continue
		}
		if !cs.terminal {
			continue
		}
		res.LatencyUs = max(res.LatencyUs, cs.verifiedAt-start)
		for _, t := range cs.sub.Tmpls {
			if spec := c.jobs[t.ID].spec; spec.Final {
				res.Outputs[spec.Output] = replicaPath(cs.plan.SID, cs.sub.Winner, spec.Output)
			}
		}
	}
	if !res.Verified {
		return res, fmt.Errorf("core: run ended with unverified sub-graphs")
	}
	return res, nil
}

// choosePoints runs the graph analyzer. Final outputs are always
// verified; forced aliases add theirs, Points == 0 adds none (the P
// baseline), otherwise the marker function adds the client's n points
// (§4.1). A forced alias that names no relation in the plan is a
// configuration error: silently skipping it would run the script with
// fewer verification points than the client asked for.
func (c *Controller) choosePoints(plan *pig.Plan) ([]int, error) {
	set := make(map[int]bool)
	for _, st := range plan.Stores() {
		set[st.Parents[0].ID] = true
	}
	switch {
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
		for _, p := range a.Mark(c.Cfg.Points, c.Cfg.Model, slices.Sorted(maps.Keys(set))...) {
			set[p] = true
		}
	}
	return slices.Sorted(maps.Keys(set)), nil
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
	boundary := make(map[string]bool, len(jobs)) // jobs materializing a point
	c.producedBy = make(map[string]string, len(jobs))
	for _, j := range jobs {
		boundary[j.ID] = slices.Contains(points, j.OutVertex)
		c.producedBy[j.Output] = j.ID
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
			if !boundary[d] {
				parent[find(j.ID)] = find(d)
			}
		}
	}
	c.jobs = make(map[string]tmplJob, len(jobs))
	c.clusters = nil
	var subs []verify.Verdict
	rootIdx := make(map[string]int)
	at := make(map[string]int, len(jobs)) // template job ID -> index in its sub-graph
	for _, j := range jobs {              // template order is topological
		root := find(j.ID)
		idx, ok := rootIdx[root]
		if !ok {
			idx = len(c.clusters)
			rootIdx[root] = idx
			c.clusters = append(c.clusters, &clusterState{})
			subs = append(subs, verify.Verdict{ID: idx})
		}
		c.jobs[j.ID] = tmplJob{cluster: idx, spec: j}
		at[j.ID] = len(subs[idx].Tmpls)
		subs[idx].Tmpls = append(subs[idx].Tmpls, verify.Tmpl{ID: j.ID})
		if j.Final {
			c.clusters[idx].terminal = true
		}
	}
	for _, j := range jobs {
		jc := c.jobs[j.ID].cluster
		s := &subs[jc]
		for _, d := range j.Deps {
			if dc := c.jobs[d].cluster; dc != jc {
				if !slices.Contains(s.Upstream, dc) {
					s.Upstream = append(s.Upstream, dc)
				}
			} else {
				t := &s.Tmpls[at[j.ID]]
				t.Deps = append(t.Deps, d)
				s.Tmpls[at[d]].Interior = true
			}
		}
		for i, in := range j.Inputs {
			if prod, ok := c.producedBy[in.Path]; ok {
				s.Audits = append(s.Audits, verify.AuditPair{In: fmt.Sprintf("%s/in%d", j.ID, i), Out: prod, From: c.jobs[prod].cluster})
			}
		}
	}
	c.v.Reset(c.runSeq, subs)
	for i, cs := range c.clusters {
		cs.sub = &c.v.Subs[i]
	}
	c.faultyReps = 0
	c.runErr = nil
}

// launch starts an attempt of cs by the verifier's plan p: it records,
// submits and arms the attempt's timer.
func (c *Controller) launch(cs *clusterState, p verify.LaunchPlan) {
	superseded := cs.plan.SID
	cs.plan = p
	cs.launchedAtV = c.Eng.Now()
	// Checkpoint-granular recovery: the consumers of a skipped template
	// job read the f+1-agreed output an earlier attempt persisted, which
	// none of the attempt's r replicas recomputes.
	for _, t := range cs.sub.Tmpls {
		if p.Skip[t.ID] {
			size, _ := c.Eng.FS.Size(c.ckptPath(cs, t.ID)) // saved before the verifier could plan the skip
			reclaimed := size * int64(p.R)
			c.ckptStats.Hits++
			c.ckptStats.BytesReclaimed += reclaimed
			c.obsCkptHits.Inc()
			c.obsCkptBytesReclaimed.Add(reclaimed)
		}
	}
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditLaunch, Replica: -1, Detail: superseded}, 0)
	for rep := range p.R {
		prefix := replicaPath(p.SID, rep, "")
		// Attempt-scoped sids already give every launch a fresh namespace;
		// the purge makes the no-append guarantee unconditional — a
		// relaunch must never Append onto a dead attempt's partial records
		// even if a prefix were ever reused.
		c.Eng.FS.DeleteTree(prefix)
		for i, t := range cs.sub.Tmpls { // topological template order
			if p.Skip != nil && !p.Run[t.ID] {
				continue
			}
			spec := c.rewriteJob(cs, prefix, rep, i)
			if _, err := c.Eng.Submit(spec); err != nil {
				c.fail(fmt.Errorf("core: submit %s: %w", spec.ID, err))
				return
			}
		}
	}
	// The timer is keyed by the attempt's sid, so a stale timer from an
	// earlier attempt can never fire a retry against a newer one.
	sid := p.SID
	c.Eng.After(p.TimeoutUs, func() { c.dispatch(verify.Event{Kind: verify.EvTimeout, SID: sid}) })
}

// rewriteJob clones template job i of cs for replica rep of the attempt
// the controller launches, rewriting paths, IDs and dependencies into the
// replica's namespace, prefix; inputs produced by upstream sub-graphs
// point at the plan's source replica.
func (c *Controller) rewriteJob(cs *clusterState, prefix string, rep, i int) *mapred.JobSpec {
	t, p := &cs.sub.Tmpls[i], &cs.plan
	spec := c.jobs[t.ID].spec.Clone()
	spec.ID = prefix + "/" + t.ID
	spec.SID = p.SID
	spec.Replica = rep
	spec.Output = prefix + "/" + spec.Output
	// Quiz/deferred attempts carry audit digests: per-task pre-combine
	// sums quizzes are checked against, plus storage-boundary in/out sums
	// that pin what actually crossed the untrusted DFS.
	spec.Audit = p.Policy != verify.PolicyFull
	spec.Ckpt = c.ckptEligible(p.Policy, *t, spec)
	// Cross-cluster deps are satisfied by data availability: the source
	// replica completed before this attempt launched. A
	// checkpoint-skipped producer's data is likewise already durable.
	var deps []string
	for _, d := range t.Deps {
		if !p.Skip[d] {
			deps = append(deps, prefix+"/"+d)
		}
	}
	spec.Deps = deps
	for i := range spec.Inputs {
		path := spec.Inputs[i].Path
		prod, ok := c.producedBy[path]
		if !ok {
			continue // raw script input from trusted storage
		}
		if p.Skip[prod] {
			// Checkpoint-covered producer: read the f+1-agreed bytes from
			// the trusted ckpt/ path, like a script input.
			spec.Inputs[i].Path = c.ckptPath(cs, prod)
			continue
		}
		spec.Inputs[i].AuditIn = spec.Audit
		if c.jobs[prod].cluster == cs.sub.ID {
			spec.Inputs[i].Path = prefix + "/" + path
		} else {
			src := p.Sources[c.jobs[prod].cluster]
			spec.Inputs[i].Path = replicaPath(src.SID, src.Replica, path)
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
			ID:       cs.sub.ID,
			Attempts: cs.sub.TotalTries,
			Upstream: append([]int(nil), cs.sub.Upstream...),
			Verified: cs.sub.Verified,
			Failed:   cs.sub.Failed,
		}
	}
	return out
}

// dispatch hands ev to the verifier and carries out what it decided.
func (c *Controller) dispatch(ev verify.Event) {
	if c.v.Apply(ev) {
		c.act()
	}
}

// onDigest hands the verifier each digest as it streams in from the
// untrusted tier.
func (c *Controller) onDigest(r digest.Report) {
	c.dispatch(verify.Event{Kind: verify.EvDigest, SID: r.Key.SID, Report: r})
}

// onAssign hands the verifier the node a replica's job first landed on.
func (c *Controller) onAssign(js *mapred.JobState, node cluster.NodeID) {
	c.dispatch(verify.Event{Kind: verify.EvAssigned, SID: js.Spec.SID, Replica: js.Spec.Replica, Job: templateOf(js), Node: node})
}

// onJobDone hands the verifier a replica's finished job, with its task
// IDs under a cheap policy, whose attempts' jobs carry audit digests.
func (c *Controller) onJobDone(js *mapred.JobState) {
	ev := verify.Event{Kind: verify.EvJobDone, SID: js.Spec.SID, Replica: js.Spec.Replica, Job: templateOf(js)}
	if js.Spec.Audit {
		ev.Tasks = js.TaskIDs()
	}
	c.dispatch(ev)
}

// templateOf names the template job js is a replica's copy of.
func templateOf(js *mapred.JobState) string {
	return js.Spec.ID[strings.LastIndexByte(js.Spec.ID, '/')+1:]
}

// act carries out the verifier's decisions in the order it made them.
// Events the decisions raise (a launch's synchronous digests, a
// checkpoint's landing) join the same stream, so only the outermost call
// drains it.
func (c *Controller) act() {
	if c.acting {
		return
	}
	c.acting = true
	for i := 0; i < len(c.v.Out); i++ {
		c.do(c.v.Out[i])
	}
	c.v.Out = c.v.Out[:0]
	c.acting = false
}

// do carries out one decision.
func (c *Controller) do(d verify.Decision) {
	cs := c.clusters[d.Sub]
	switch d.Kind {
	case verify.DFaulty:
		if d.Cause == analyze.CauseCommission {
			c.faultyReps++
		}
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditMismatch, Replica: d.Replica, Cause: d.Cause, Nodes: d.Nodes}, 0)
	case verify.DVerified:
		cs.verifiedAt = c.Eng.Now()
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditVerify, Replica: d.Replica}, int64(d.N))
		// Unfinished replicas are no longer needed; their slots free up.
		c.kill(cs)
	case verify.DRetry:
		c.kill(cs)
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRetry, Replica: -1, Cause: d.Cause}, 0)
	case verify.DEscalate:
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditEscalate, Replica: -1, Detail: d.Detail}, 0)
	case verify.DRestart, verify.DFail:
		c.kill(cs)
		// A cascade exists because upstream data lineage is suspect;
		// checkpoints derived from it must not shortcut the re-run.
		c.dropCkpts(cs)
		if d.Kind == verify.DRestart {
			c.record(cs, analyze.AuditEvent{Kind: analyze.AuditRestart, Replica: -1}, 0)
			break
		}
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditFail, Replica: -1, Cause: d.Cause}, 0)
		c.fail(fmt.Errorf("core: sub-graph c%d exhausted %d attempts", cs.sub.ID, cs.sub.TotalTries))
	case verify.DCheckpointAgreed:
		c.checkpoint(cs, d.Detail, d.Replica)
	case verify.DQuiz:
		c.startQuiz(cs, d.Picks)
	case verify.DLaunch:
		c.launch(cs, d.Plan)
	case verify.DTooWide:
		c.fail(fmt.Errorf("core: sub-graph c%d needs %d replicas, the verifier tallies at most %d per attempt", cs.sub.ID, d.N, verify.MaxReplicas))
	case verify.DForget:
		c.Eng.ForgetSID(d.Detail)
	case verify.DLog:
		c.audit.Record(*d.Line)
	}
}

// startQuiz re-executes the primary's picked tasks on the trusted tier;
// the recomputed digests flow back through onDigest tagged as
// verify.QuizReplica.
func (c *Controller) startQuiz(cs *clusterState, picks []verify.QuizTask) {
	sid := cs.plan.SID
	for _, p := range picks {
		jobID := replicaPath(sid, 0, cs.sub.Tmpls[p.Tmpl].ID)
		err := c.Eng.Requiz(jobID, p.Task, verify.QuizReplica, c.onDigest,
			func() { c.dispatch(verify.Event{Kind: verify.EvQuiz, SID: sid}) })
		if err != nil {
			c.fail(fmt.Errorf("core: quiz %s/%s: %w", jobID, p.Task, err))
			return
		}
	}
}

// teardownRun sweeps all remaining attempts after the simulation drains:
// the digest vectors, node placements, checkpoints, scheduler affinity
// and job records are request-scoped, and a controller serving a stream
// of Runs must not accumulate them. The run is over, so this is no
// event. Verified winners' outputs live in the DFS, so nothing
// referenced by Result is touched.
func (c *Controller) teardownRun() {
	for _, sid := range c.v.Sweep() {
		c.Eng.ForgetSID(sid)
	}
	for _, cs := range c.clusters {
		c.dropCkpts(cs)
	}
}

// record is the one writer of what the control tier keeps about a
// decision on the attempt the controller launched last; nothing else in
// this package writes these stores, so they cannot fall out of step (a
// DLog's table line goes to the trail as the verifier logged it). ev
// is the decision as the audit trail holds it (Replica -1 for none); the
// ledger is told what the attempt's CPU bought, the board what /jobs
// serves once teardown forgot the sid, the tracer the timeline (n:
// deviants outvoted, records saved). The blame itself the verifier
// already gave the suspicion table and fault analyzer.
func (c *Controller) record(cs *clusterState, ev analyze.AuditEvent, n int64) {
	eng, p, rep := c.Eng, &cs.plan, int64(ev.Replica)
	sid := p.SID
	ev.SID = sid
	c.audit.Record(ev)
	b, tr, now := eng.Board, eng.Trace, eng.Now()
	switch ev.Kind {
	case analyze.AuditLaunch: // Detail: the attempt this one supersedes
		if ev.Detail != "" {
			eng.Ledger.Supersede(ev.Detail)
			b.UpsertSID(ev.Detail, func(s *obs.SIDStatus) { s.State = "superseded" })
		}
		eng.Ledger.Launch(sid, p.Policy.String())
		b.UpsertSID(sid, func(s *obs.SIDStatus) {
			s.Cluster, s.Attempt, s.Replicas = cs.sub.ID, p.TotalTries, p.R
			s.Policy, s.State, s.Winner = p.Policy.String(), "running", -1
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
		if ev.Cause == analyze.CauseCommission {
			tr.Instant("suspicion", "verifier", "fault "+sid, now, obs.AI("replica", rep), obs.AI("nodes", int64(len(ev.Nodes))))
			b.UpsertSID(sid, func(s *obs.SIDStatus) {
				s.FaultyReplicas = append(s.FaultyReplicas, ev.Replica)
				for _, n := range ev.Nodes {
					s.FaultyNodes = append(s.FaultyNodes, string(n))
				}
			})
		}
	}
}

// suspicion summarizes the suspicion table for /jobs, which reads it
// when it is served.
func (c *Controller) suspicion() obs.SuspicionStatus {
	h := c.Susp.Histogram()
	st := obs.SuspicionStatus{Low: h[verify.Low], Med: h[verify.Med], High: h[verify.High]}
	for _, n := range c.Susp.Suspects() {
		st.Suspects = append(st.Suspects, string(n))
		if c.Susp.Excluded(n) {
			st.Excluded = append(st.Excluded, string(n))
		}
	}
	return st
}

// kill stops every job of the attempt launched last; a template it
// skipped was never submitted, and killing it is a no-op.
func (c *Controller) kill(cs *clusterState) {
	for rep := range cs.plan.R {
		for _, t := range cs.sub.Tmpls {
			c.Eng.KillJob(replicaPath(cs.plan.SID, rep, t.ID))
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
