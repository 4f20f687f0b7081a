package core

import (
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
)

// System is one deployment: trusted storage, the untrusted worker tier
// and the engine over them, plus — once Assure has run — the control
// tier. Every command, harness and example wires its rig here.
type System struct {
	FS      *dfs.FS
	Cluster *cluster.Cluster
	Engine  *mapred.Engine
	Susp    *SuspicionTable // nil until Assure
	Ctrl    *Controller     // nil until Assure
}

// NewSystem builds storage, workers and a FIFO engine: exactly the
// Pure-Pig baseline's rig, ready for RunPlain.
func NewSystem(nodes, slots int, storage dfs.Options, cost mapred.CostModel) *System {
	fs := dfs.NewWith(storage)
	cl := cluster.New(nodes, slots)
	return &System{FS: fs, Cluster: cl, Engine: mapred.NewEngine(fs, cl, nil, cost)}
}

// Assure puts the control tier over the engine. The verifier and the
// resource manager read the same suspicion/inclusion list (§4.2), so one
// table goes to both the overlap scheduler and the controller; and
// checkpoint-granular recovery ships with straggler re-launch, so
// cfg.Checkpoint arms speculation — the one place that rule lives.
func (s *System) Assure(cfg Config) *Controller {
	s.Susp = NewSuspicionTable(cfg.SuspicionThreshold)
	s.Engine.Sched = NewOverlapScheduler(s.Susp)
	if cfg.Checkpoint {
		s.Engine.Speculation = true
	}
	s.Ctrl = NewController(s.Engine, cfg, s.Susp, nil)
	return s.Ctrl
}
