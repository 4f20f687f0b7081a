// Package cluster models the untrusted worker tier (paper §2.3): virtual
// nodes leased from a cloud provider, each partitioned into uniform
// resource units (task slots), and per-node adversaries that inject
// Byzantine faults — commission faults (corrupting task output) and
// omission faults (withholding task completion) — under the paper's weak
// and strong adversary models.
package cluster

import (
	"fmt"
	"math/rand"

	"clusterbft/internal/tuple"
)

// NodeID identifies one virtual node.
type NodeID string

// FaultKind classifies the Byzantine behaviour a node's adversary
// injects, following the Kihlstrom et al. taxonomy quoted in §2.1.
type FaultKind uint8

const (
	// FaultNone marks an honest node.
	FaultNone FaultKind = iota
	// FaultCommission makes the node emit records it should not send:
	// task outputs (and hence digests) are corrupted.
	FaultCommission
	// FaultOmission makes the node withhold messages: assigned tasks
	// never report completion.
	FaultOmission
	// FaultSlow is a benign straggler: tasks complete correctly but take
	// SlowFactor times longer. Stragglers exercise the verifier's
	// timeout and the offline-comparison machinery without any lying.
	FaultSlow
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCommission:
		return "commission"
	case FaultOmission:
		return "omission"
	case FaultSlow:
		return "slow"
	default:
		return "unknown"
	}
}

// Adversary controls fault injection on one node. Probability is the
// per-task chance the fault fires (1.0 reproduces Table 3's
// "always produce commission failures" node). Draws come from a seeded
// source so simulations are reproducible.
type Adversary struct {
	Kind        FaultKind
	Probability float64
	// SlowFactor multiplies task duration for FaultSlow adversaries;
	// values <= 1 default to 4.
	SlowFactor float64
	rng        *rand.Rand
}

// NewAdversary builds a seeded adversary.
func NewAdversary(kind FaultKind, probability float64, seed int64) *Adversary {
	return &Adversary{Kind: kind, Probability: probability, rng: rand.New(rand.NewSource(seed))}
}

// Slowdown returns the straggler factor (at least 1).
func (a *Adversary) Slowdown() float64 {
	if a == nil || a.SlowFactor <= 1 {
		return 4
	}
	return a.SlowFactor
}

// Fire draws whether the fault hits the current task. Honest adversaries
// (nil or FaultNone) never fire.
func (a *Adversary) Fire() bool {
	if a == nil || a.Kind == FaultNone || a.Probability <= 0 {
		return false
	}
	if a.Probability >= 1 {
		return true
	}
	return a.rng.Float64() < a.Probability
}

// Corrupt returns v tampered with, the visible effect of a commission
// fault: an integer is incremented and a string gets a marker suffix, so
// both the downstream computation and the digest of the stream change.
// cat(s, suffix) is s+suffix, from wherever the caller keeps a task's
// strings (mapred.TaskFault).
func Corrupt(v tuple.Value, cat func(s, suffix string) string) tuple.Value {
	switch v.Kind() {
	case tuple.KindInt:
		return tuple.Int(v.Int() + 1)
	case tuple.KindFloat:
		return tuple.Float(v.Float() + 1)
	case tuple.KindString:
		return tuple.Str(cat(v.Str(), "\x00x"))
	default:
		return tuple.Str("\x00x")
	}
}

// Node is one virtual machine of the untrusted tier.
type Node struct {
	ID        NodeID
	Slots     int // resource units (§4.2): concurrent task capacity
	Adversary *Adversary
}

// Cluster is the set of worker nodes.
type Cluster struct {
	nodes []*Node
	byID  map[NodeID]*Node
}

// New builds a cluster of n honest nodes with the given slot count each.
// Node IDs are "node-000", "node-001", ...
func New(n, slots int) *Cluster {
	c := &Cluster{byID: make(map[NodeID]*Node, n)}
	for i := 0; i < n; i++ {
		node := &Node{ID: NodeID(fmt.Sprintf("node-%03d", i)), Slots: slots}
		c.nodes = append(c.nodes, node)
		c.byID[node.ID] = node
	}
	return c
}

// Nodes returns the nodes in ID order. The slice is shared; callers must
// not mutate it.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node looks a node up by ID, returning nil when absent.
func (c *Cluster) Node(id NodeID) *Node { return c.byID[id] }

// TotalSlots returns the cluster-wide resource unit count.
func (c *Cluster) TotalSlots() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Slots
	}
	return total
}

// SetAdversary attaches a seeded adversary to the named node. Unknown
// node IDs are an error.
func (c *Cluster) SetAdversary(id NodeID, kind FaultKind, probability float64, seed int64) error {
	n := c.byID[id]
	if n == nil {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	n.Adversary = NewAdversary(kind, probability, seed)
	return nil
}
