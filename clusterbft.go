// Package clusterbft is a Go implementation of ClusterBFT (Stephen &
// Eugster, Middleware 2013): assured cloud data analysis that protects
// data-flow computations with Byzantine fault tolerant replication at
// variable granularity. Scripts written in a PigLatin subset compile to
// MapReduce jobs; sub-graphs of the data-flow DAG are replicated r-fold
// on an untrusted worker tier; SHA-256 digests of the streams crossing a
// small set of verification points are matched f+1-fold by a trusted
// verifier, which re-initiates failed sub-graphs at higher replication,
// tracks per-node suspicion, and intersects faulty job clusters to
// isolate Byzantine nodes.
//
// This package is the facade over the implementation: it bundles trusted
// storage, a simulated untrusted worker tier, the MapReduce engine and
// the ClusterBFT control tier into one System. The detailed machinery
// lives in internal/ packages (pig, mapred, core, bft, ...); everything
// a client needs is re-exported here. examples/quickstart uses only it
// (and workload's generators); examples/weather adds core.ControlTierTime.
//
// Basic usage:
//
//	sys := clusterbft.New(16, 3, clusterbft.DefaultConfig())
//	sys.LoadData("data/edges", lines...)
//	res, err := sys.Run(script)
//	out, _ := sys.Output(res, "out/counts")
package clusterbft

import (
	"fmt"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
)

// Config parameterizes assured execution; see the field docs in
// internal/core. Zero values get sensible defaults via DefaultConfig.
type Config = core.Config

// Result summarizes one assured run.
type Result = core.Result

// Metrics are the engine's resource counters.
type Metrics = mapred.Metrics

// CostModel sets virtual-time costs for the simulated engine.
type CostModel = mapred.CostModel

// NodeID identifies a worker node ("node-000", "node-001", ...).
type NodeID = cluster.NodeID

// FaultKind classifies injected Byzantine behaviour.
type FaultKind = cluster.FaultKind

// Fault kinds for InjectFault.
const (
	FaultCommission = cluster.FaultCommission
	FaultOmission   = cluster.FaultOmission
	FaultSlow       = cluster.FaultSlow
)

// Adversary models for Config.Model.
const (
	WeakAdversary   = analyze.Weak
	StrongAdversary = analyze.Strong
)

// StorageOptions configures the trusted store's block data plane: block
// size, resident-memory budget, spill directory and per-block
// compression. Set via Config.Storage; the zero value keeps everything
// resident and uncompressed.
type StorageOptions = dfs.Options

// DefaultConfig mirrors the paper's common setup: f=1, r=4, two
// verification points, weak adversary, offline comparison.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCostModel returns Hadoop-1.x-flavoured virtual-time costs.
func DefaultCostModel() CostModel { return mapred.DefaultCostModel() }

// System bundles one assured-analysis deployment: trusted storage, an
// untrusted simulated worker tier, the MapReduce engine and the
// ClusterBFT controller. A System is not safe for concurrent use.
type System struct {
	sys *core.System
}

// New builds a system with `nodes` worker nodes of `slots` task slots
// each, using the default cost model.
func New(nodes, slots int, cfg Config) *System {
	return NewWithCost(nodes, slots, cfg, mapred.DefaultCostModel())
}

// NewWithCost is New with an explicit virtual-time cost model.
func NewWithCost(nodes, slots int, cfg Config, cost CostModel) *System {
	sys := core.NewSystem(nodes, slots, cfg.Storage, cost)
	sys.Assure(cfg)
	return &System{sys: sys}
}

// LoadData appends records (one per line, tab-separated columns) to the
// trusted store at path, where scripts LOAD them.
func (s *System) LoadData(path string, lines ...string) {
	s.sys.FS.Append(path, lines...)
}

// InjectFault attaches a seeded Byzantine adversary to a node: a
// commission adversary corrupts task outputs, an omission adversary
// withholds task completions, a slow adversary stretches task durations.
// probability is the per-task chance of firing.
func (s *System) InjectFault(node NodeID, kind FaultKind, probability float64, seed int64) error {
	return s.sys.Cluster.SetAdversary(node, kind, probability, seed)
}

// InjectFaultWithFactor is InjectFault with an explicit straggler factor
// for FaultSlow adversaries.
func (s *System) InjectFaultWithFactor(node NodeID, kind FaultKind, probability float64, seed int64, slowFactor float64) error {
	if err := s.sys.Cluster.SetAdversary(node, kind, probability, seed); err != nil {
		return err
	}
	s.sys.Cluster.Node(node).Adversary.SlowFactor = slowFactor
	return nil
}

// SetSpeculation toggles Hadoop-style speculative execution in the
// engine: laggard tasks get backup copies on other nodes, rescuing
// replicas from stragglers and omission-hung tasks.
func (s *System) SetSpeculation(on bool) { s.sys.Engine.Speculation = on }

// Run executes a script under BFT protection and blocks until the
// simulation settles. Suspicion state persists across calls, so a stream
// of Runs sharpens fault isolation.
func (s *System) Run(script string) (*Result, error) {
	return s.sys.Ctrl.Run(script)
}

// RunPlain executes a script with no replication or verification (the
// "Pure Pig" baseline) and returns its virtual latency in microseconds.
func (s *System) RunPlain(script string) (int64, error) {
	return core.RunPlain(s.sys.Engine, script)
}

// Output reads the verified output of one STORE path from res.
func (s *System) Output(res *Result, store string) ([]string, error) {
	path, ok := res.Outputs[store]
	if !ok {
		return nil, fmt.Errorf("clusterbft: no verified output for store %q", store)
	}
	return s.sys.FS.ReadTree(path)
}

// Suspicion returns a node's current suspicion level in [0, 1].
func (s *System) Suspicion(node NodeID) float64 { return s.sys.Susp.Level(node) }

// Excluded reports whether a node fell off the scheduler's inclusion
// list.
func (s *System) Excluded(node NodeID) bool { return s.sys.Susp.Excluded(node) }

// Suspects returns the fault analyzer's current suspicion set.
func (s *System) Suspects() []NodeID { return s.sys.Ctrl.FA.Suspects() }

// EngineMetrics snapshots the engine's cumulative resource counters.
func (s *System) EngineMetrics() Metrics { return s.sys.Engine.Metrics }

// VirtualNow returns the engine's virtual clock in microseconds.
func (s *System) VirtualNow() int64 { return s.sys.Engine.Now() }

// Close releases the trusted store's spill file, if a memory budget ever
// forced blocks to disk. Safe to call on systems that never spilled.
func (s *System) Close() error { return s.sys.FS.Close() }
