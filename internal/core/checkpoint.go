package core

import (
	"fmt"
	"slices"

	"clusterbft/internal/analyze"
	"clusterbft/internal/mapred"
	"clusterbft/internal/verify"
)

// Checkpoint-granular recovery (DESIGN.md §12). A full-r sub-graph's
// interior jobs run with Spec.Ckpt set, and the engine digests their
// output as stored (CkptPoint) when each finishes. Once f+1 replicas
// agree on one, the verifier decides it verified at job granularity; the
// controller appends that replica's output under a trusted ckpt/ path and
// reports the landing, on which the verifier keeps the source signature
// (the upstream sid and replica per upstream sub-graph). A later attempt
// whose sources match it skips the job: its consumers read the checkpoint,
// and only the DAG suffix re-executes. A restart cascade drops a sub-graph's checkpoints, since
// its lineage is suspect. Boundary jobs are never checkpointed, so the
// suffix is never empty.

// CheckpointStats counts checkpoint activity across a controller's
// lifetime; the chaos campaign and the recovery experiment read it.
type CheckpointStats struct {
	Saves          int64 // checkpoints persisted, one per (cluster, job) per source signature
	Hits           int64 // jobs skipped at launch because a valid checkpoint covered them
	BytesWritten   int64 // line bytes persisted into ckpt/ paths
	BytesReclaimed int64 // output bytes not recomputed, over every replica of the skipping attempt
}

// CheckpointStats returns the controller's checkpoint counters.
func (c *Controller) CheckpointStats() CheckpointStats { return c.ckptStats }

// ckptEligible reports whether template job t, compiled as spec, runs
// with checkpoint capture under policy p: checkpointing on, full
// replication (quiz/deferred run r=1 and can never reach f+1
// agreement), an in-cluster dependent to serve, and not a STORE
// materialization — Result.Outputs points consumers at the winner
// replica's prefix, so Final outputs must exist there on every attempt.
func (c *Controller) ckptEligible(p verify.Policy, t verify.Tmpl, spec *mapred.JobSpec) bool {
	return c.Cfg.Checkpoint && p == verify.PolicyFull && t.Interior && !spec.Final
}

// checkpoint acts on the verifier's finding that replica rep is among
// the f+1 agreeing on template job tmplID's CkptPoint digest, which it
// reported as the job finished: persist that job's output, and report the
// landing. The verifier decides it once per job until a cascade drops the
// job's checkpoint. The replica's namespace is purged only when an
// attempt under its sid launches, so the output is still there.
func (c *Controller) checkpoint(cs *clusterState, tmplID string, rep int) {
	out := c.Eng.FS.OpenOutput(c.Eng.Job(replicaPath(cs.plan.SID, rep, tmplID)).Spec.Output)
	lines := slices.AppendSeq(make([]string, 0, out.NumRecords()), out.Lines)
	path := c.ckptPath(cs, tmplID)
	_ = c.Eng.FS.Delete(path)
	c.Eng.FS.Append(path, lines...)
	size, _ := c.Eng.FS.Size(path) // the file was just appended: it exists
	c.ckptStats.Saves++
	c.ckptStats.BytesWritten += size
	c.obsCkptSaves.Inc()
	c.obsCkptBytesWritten.Add(size)
	c.record(cs, analyze.AuditEvent{Kind: analyze.AuditCheckpoint, Replica: rep, Detail: tmplID}, int64(len(lines)))
	c.dispatch(verify.Event{Kind: verify.EvCheckpoint, SID: cs.plan.SID, Job: tmplID})
}

// ckptPath is where template job tmplID of cs keeps its checkpoint in
// this run, under ckpt/run<seq>/c<id>/, which it is when tmplID is "".
func (c *Controller) ckptPath(cs *clusterState, tmplID string) string {
	return fmt.Sprintf("ckpt/run%d/c%d/%s", c.runSeq, cs.sub.ID, tmplID)
}

// dropCkpts deletes a cluster's checkpoint files. Called for every member
// of a restart cascade (their upstream data lineage is suspect) and at
// run teardown; the verifier drops the signatures.
func (c *Controller) dropCkpts(cs *clusterState) {
	if c.Cfg.Checkpoint {
		c.Eng.FS.DeleteTree(c.ckptPath(cs, ""))
	}
}
