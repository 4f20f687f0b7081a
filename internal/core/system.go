package core

import (
	"fmt"

	"clusterbft/internal/bft"
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

// ControlTierTime models this control tier replicated (§5.2, Fig 14):
// the virtual time a fresh 3f+1 PBFT group takes to order the verdicts
// on reports digests, verdictBatch to a consensus instance, and the
// instances. The verifier has matched; a handler only acknowledges.
func ControlTierTime(f int, reports int64) (virtUs int64, batches int, err error) {
	const verdictBatch = 20
	batches = int((reports + verdictBatch - 1) / verdictBatch)
	g := bft.NewGroup(f, func(int) bft.StateMachine { return ackHandler{} })
	for i := 0; i < batches; i++ {
		_, us, err := g.Invoke(fmt.Appendf(nil, "verdict-batch-%d", i))
		if err != nil {
			return 0, 0, err
		}
		virtUs += us
	}
	return virtUs, batches, nil
}

type ackHandler struct{}

func (ackHandler) Apply(op []byte) []byte { return op }
