package bft

import (
	"clusterbft/internal/obs"
	"clusterbft/internal/vtime"
)

// Handler consumes messages delivered by the network.
type Handler interface {
	Receive(from ID, msg Message)
}

// Network is a deterministic virtual-time message bus. Delivery order is
// fully determined by send order and the Delay/Drop policies, making
// protocol tests reproducible. All handlers run on the driving goroutine.
type Network struct {
	// Queue holds the pending deliveries and timers: Now reads its clock,
	// After schedules on it.
	vtime.Queue

	nodes map[ID]Handler

	// Delay returns the virtual-microsecond latency for a message;
	// defaults to a constant 1000 (1ms) when nil.
	Delay func(from, to ID) int64
	// Drop reports whether to silently lose a message; nil never drops.
	// Partition faults and silent-replica behaviours are modeled here.
	Drop func(from, to ID, msg Message) bool
	// Transform, when set, may replace a message in flight; returning
	// the input unchanged is a no-op. Byzantine behaviours beyond
	// silence — equivocation, corrupted votes — are modeled here.
	Transform func(from, to ID, msg Message) Message

	// Perturb, when set, draws a delivery perturbation for each message
	// after Drop/Transform: chaos injection uses it for seeded message
	// loss, duplication and reordering (extra delay) bounded to a quorum-
	// safe victim set. Nil is free.
	Perturb func(from, to ID, msg Message) Perturbation

	// Trace, when set, observes every delivered message.
	Trace func(from, to ID, msg Message)

	delivered int64
}

// Perturbation alters the delivery of one message. The zero value
// delivers normally.
type Perturbation struct {
	// Drop silently loses the message (all copies).
	Drop bool
	// Dup delivers this many extra copies on top of the original.
	Dup int
	// ExtraDelayUs is added to the base latency; duplicated copies get it
	// compounded per copy, which reorders them past later traffic.
	ExtraDelayUs int64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{nodes: make(map[ID]Handler)}
}

// Register attaches a handler under the given ID, replacing any previous
// registration.
func (n *Network) Register(id ID, h Handler) { n.nodes[id] = h }

// Delivered returns the number of messages delivered so far.
func (n *Network) Delivered() int64 { return n.delivered }

// Instrument registers live views of the bus into reg: delivered message
// count, registered replica count, and the current virtual time.
func (n *Network) Instrument(reg *obs.Registry) {
	if n == nil || reg == nil {
		return
	}
	reg.Func("bft.messages_delivered", n.Delivered)
	reg.Func("bft.replicas", func() int64 { return int64(len(n.nodes)) })
	reg.Func("bft.virtual_time_us", n.Now)
}

// Send schedules msg for delivery from -> to.
func (n *Network) Send(from, to ID, msg Message) {
	if n.Drop != nil && n.Drop(from, to, msg) {
		return
	}
	if n.Transform != nil {
		msg = n.Transform(from, to, msg)
	}
	delay := int64(1000)
	if n.Delay != nil {
		delay = n.Delay(from, to)
	}
	copies := 1
	if n.Perturb != nil {
		p := n.Perturb(from, to, msg)
		if p.Drop {
			return
		}
		copies += p.Dup
		delay += p.ExtraDelayUs
	}
	deliver := func() {
		h := n.nodes[to]
		if h == nil {
			return
		}
		n.delivered++
		if n.Trace != nil {
			n.Trace(from, to, msg)
		}
		h.Receive(from, msg)
	}
	for c := 0; c < copies; c++ {
		n.After(delay*int64(c+1), deliver)
	}
}

// Run processes events until the queue drains or the optional budget of
// deliveries is exhausted (budget <= 0 means unbounded). It returns the
// virtual time reached.
func (n *Network) Run(budget int64) int64 {
	return n.RunWhile(budget, nil)
}

// RunWhile is Run with an additional stop condition checked before each
// event: processing halts as soon as cond returns false. Pending events
// (retransmission timers, in-flight messages) stay queued for the next
// Run, so the virtual clock reflects when the condition was met rather
// than when the queue drained.
func (n *Network) RunWhile(budget int64, cond func() bool) int64 {
	start := n.delivered
	for n.Pending() > 0 {
		if cond != nil && !cond() {
			break
		}
		if budget > 0 && n.delivered-start >= budget {
			break
		}
		n.Step()
	}
	return n.Now()
}
