package core

import (
	"fmt"

	"clusterbft/internal/analyze"
	"clusterbft/internal/digest"
)

// Checkpoint-granular recovery (ROADMAP item 5, DESIGN.md §12).
//
// A full-r sub-graph's interior jobs — jobs with an in-cluster
// dependent — run with Spec.Ckpt set: the engine retains their output
// lines exactly as produced and emits a CkptPoint digest over the
// concatenated stream at job completion. The controller watches those
// digests arrive per replica; the moment f+1 replicas agree on one
// job's CkptPoint sum, the output is *verified at job granularity* even
// though the sub-graph as a whole is still running, and the controller
// persists one agreeing replica's retained lines under a durable
// ckpt/ path.
//
// When the sub-graph later needs another attempt (verifier timeout,
// no-agreement retry, deviant-source restart, escalation rerun at full
// r), tryLaunch consults the registry: every checkpointed job whose
// upstream source signature still matches is skipped, its consumers
// read the checkpoint file instead, and only the DAG suffix downstream
// of the last verified point re-executes — at the attempt's (higher)
// replication degree. Boundary jobs (no in-cluster dependent) are never
// checkpointed, so the suffix is never empty and the verification
// digests the sub-graph verdict needs always flow.
//
// Soundness:
//
//   - Bytes are persisted from the engine's in-memory as-produced lines
//     (the same stream the CkptPoint digest covers), never read back
//     from the DFS — a storage write-mangle can therefore never poison
//     a checkpoint. The ckpt/ namespace itself lives outside every
//     replica prefix, on the trusted tier's store like script inputs.
//   - Agreement uses the same f+1-with-ambiguity-rejection rule as the
//     online Observe check: a key where two sums both reach f+1
//     proves the fault budget was exceeded and is never persisted.
//   - Each entry records the upstream source signature (sid + replica
//     per upstream cluster) at save time; an attempt whose sources
//     changed — a restart after a deviant optimistic source, an
//     upstream retry — fails the signature check and re-runs from
//     scratch. The restart cascade additionally drops the affected
//     clusters' entries outright.

// ckptSrc is one upstream cluster's identity at checkpoint-save time.
type ckptSrc struct {
	sid     string
	replica int
}

// ckptEntry is one persisted checkpoint: the f+1-agreed output digest
// of a template job, the durable DFS path holding the agreed bytes, and
// the source signature the producing attempt consumed.
type ckptEntry struct {
	sum     digest.Sum
	path    string
	records int64
	bytes   int64
	srcs    map[int]ckptSrc
}

// CheckpointStats counts checkpoint activity across a controller's
// lifetime; the chaos campaign and the recovery experiment read it.
type CheckpointStats struct {
	// Saves counts checkpoints persisted (one per (cluster, job) per
	// source signature).
	Saves int64
	// Hits counts jobs skipped at launch because a valid checkpoint
	// covered them.
	Hits int64
	// BytesWritten is the line bytes persisted into ckpt/ paths.
	BytesWritten int64
	// BytesReclaimed is the output bytes NOT recomputed thanks to
	// skips, summed over every replica of the skipping attempt.
	BytesReclaimed int64
}

// CheckpointStats returns the controller's checkpoint counters.
func (c *Controller) CheckpointStats() CheckpointStats { return c.ckptStats }

// ckptEligible reports whether tmpl runs with checkpoint capture in cs:
// checkpointing on, full replication (quiz/deferred run r=1 and can
// never reach f+1 agreement), an in-cluster dependent to serve, and not
// a STORE materialization — Result.Outputs points consumers at the
// winner replica's prefix, so Final outputs must exist there on every
// attempt.
func (c *Controller) ckptEligible(cs *clusterState, tmplID string) bool {
	if !c.Cfg.Checkpoint || cs.policy != PolicyFull || !cs.hasInDep[tmplID] {
		return false
	}
	t := c.templates[tmplID]
	return t != nil && !t.Final
}

// maybeCheckpoint runs on every CkptPoint digest arrival: once f+1
// replicas agree on a job's output digest, persist one agreeing
// replica's retained lines. Idempotent per (cluster, job) — later
// arrivals of the same agreed digest find the entry and return.
func (c *Controller) maybeCheckpoint(cs *clusterState, key digest.Key) {
	tmplID := key.Task
	if !c.ckptEligible(cs, tmplID) {
		return
	}
	if c.ckpts[cs.id][tmplID] != nil {
		return
	}
	sum, agreeing, ok := c.matcher.KeyAgreement(cs.sid, key)
	if !ok {
		return
	}
	li := -1
	for i, t := range cs.launchJobs {
		if t.ID == tmplID {
			li = i
			break
		}
	}
	if li < 0 {
		return
	}
	for _, rep := range agreeing {
		if rep < 0 || rep >= len(cs.replicas) {
			continue
		}
		js := c.Eng.Job(cs.replicas[rep].jobIDs[li])
		if js == nil || !js.Done {
			continue
		}
		lines := js.ProducedLines()
		path := fmt.Sprintf("ckpt/run%d/c%d/%s", c.runSeq, cs.id, tmplID)
		_ = c.Eng.FS.Delete(path)
		c.Eng.FS.Append(path, lines...)
		e := &ckptEntry{
			sum:     sum,
			path:    path,
			records: int64(len(lines)),
			bytes:   ckptLinesBytes(lines),
			srcs:    make(map[int]ckptSrc, len(cs.sources)),
		}
		for u, s := range cs.sources {
			e.srcs[u] = ckptSrc{sid: s.sid, replica: s.replica}
		}
		if c.ckpts[cs.id] == nil {
			c.ckpts[cs.id] = make(map[string]*ckptEntry)
		}
		c.ckpts[cs.id][tmplID] = e
		c.ckptStats.Saves++
		c.ckptStats.BytesWritten += e.bytes
		c.obsCkptSaves.Inc()
		c.obsCkptBytesWritten.Add(e.bytes)
		c.record(cs, analyze.AuditEvent{Kind: analyze.AuditCheckpoint, Replica: rep, Detail: tmplID}, e.records)
		return
	}
}

// ckptValid returns the cluster's entry for tmplID when its source
// signature matches the attempt's current sources exactly; nil
// otherwise. A changed source (restart after a deviant optimistic
// source, an upstream re-verification) invalidates the checkpoint — its
// bytes were derived from data this attempt no longer consumes.
func (c *Controller) ckptValid(cs *clusterState, tmplID string) *ckptEntry {
	e := c.ckpts[cs.id][tmplID]
	if e == nil || len(e.srcs) != len(cs.sources) {
		return nil
	}
	for u, s := range cs.sources {
		es, ok := e.srcs[u]
		if !ok || es.sid != s.sid || es.replica != s.replica {
			return nil
		}
	}
	return e
}

// coveredTemplates computes the attempt's launch plan from the
// checkpoint registry: skip maps checkpoint-covered template IDs to
// their entries, run holds the template IDs to submit. Demand
// propagates in reverse topological order — a boundary job (no
// in-cluster dependent) is always demanded; a demanded job with a valid
// checkpoint is skipped and shields its prefix; a demanded job without
// one runs and demands its in-cluster dependencies. Jobs nobody demands
// (their every consumer sits behind a checkpoint) neither run nor skip.
// Returns (nil, nil) when checkpointing is off or nothing is covered —
// the caller then launches the full template list, byte-identically to
// the pre-checkpoint controller.
func (c *Controller) coveredTemplates(cs *clusterState) (skip map[string]*ckptEntry, run map[string]bool) {
	if !c.Cfg.Checkpoint || cs.policy != PolicyFull || len(c.ckpts[cs.id]) == 0 {
		return nil, nil
	}
	skip = make(map[string]*ckptEntry)
	run = make(map[string]bool)
	demanded := make(map[string]bool)
	for i := len(cs.jobs) - 1; i >= 0; i-- {
		j := cs.jobs[i]
		if !cs.hasInDep[j.ID] {
			demanded[j.ID] = true
		}
		if !demanded[j.ID] {
			continue
		}
		if e := c.ckptValid(cs, j.ID); e != nil {
			skip[j.ID] = e
			continue
		}
		run[j.ID] = true
		for _, d := range j.Deps {
			if c.clusterOf[d] == cs.id {
				demanded[d] = true
			}
		}
	}
	if len(skip) == 0 {
		return nil, nil
	}
	return skip, run
}

// dropCkpts deletes a cluster's checkpoint entries and their persisted
// files. Called for every member of a restart cascade (their upstream
// data lineage is suspect) and at run teardown.
func (c *Controller) dropCkpts(cs *clusterState) {
	reg := c.ckpts[cs.id]
	if len(reg) == 0 {
		return
	}
	for _, e := range reg {
		_ = c.Eng.FS.Delete(e.path)
	}
	delete(c.ckpts, cs.id)
}

// ckptLinesBytes sums line lengths plus newlines — the same accounting
// the engine's HDFS byte counters use.
func ckptLinesBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}
