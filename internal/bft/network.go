package bft

import (
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
	free      *flight // delivered records, for the next Send
}

// flight is one sent message waiting on the queue. The bus recycles
// these records, and each binds its delivery function once, so a warm
// Send schedules without allocating.
type flight struct {
	net      *Network
	from, to ID
	msg      Message
	copies   int    // deliveries still queued
	deliver  func() // f.land, bound once
	next     *flight
}

// land delivers one copy, releasing the record once the last copy is
// out: a handler's own sends may then reuse it.
func (f *flight) land() {
	n, from, to, msg := f.net, f.from, f.to, f.msg
	if f.copies--; f.copies == 0 {
		f.msg = nil
		f.next, n.free = n.free, f
	}
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
	f := n.free
	if f == nil {
		f = &flight{net: n}
		f.deliver = f.land
	} else {
		n.free = f.next
	}
	f.from, f.to, f.msg, f.copies = from, to, msg, copies
	for c := 0; c < copies; c++ {
		n.After(delay*int64(c+1), f.deliver)
	}
}

// watchdog is a re-armable timeout on the bus. Every arming schedules
// an event of its own, because the queue orders same-instant events by
// when they were scheduled, and only the latest arming calls expire: a
// later arm or a disarm makes every queued one stale. The events carry
// recycled alarm records, so re-arming a warm watchdog allocates
// nothing.
type watchdog struct {
	net    *Network
	gen    int
	expire func()
	free   *alarm  // fired records
	slab   []alarm // records never used
}

// alarmSlab is how many alarm records a watchdog allocates at once. A
// replica's watchdog holds one per arming still queued: about 30 at
// f = 1, where a 50 ms timeout outlives a dozen consensus instances.
const alarmSlab = 16

// alarm is one queued arming of a watchdog.
type alarm struct {
	w    *watchdog
	gen  int
	ring func() // a.fire, bound once
	next *alarm
}

func (w *watchdog) arm(delayUs int64) {
	w.gen++
	a := w.free
	if a != nil {
		w.free = a.next
	} else {
		if len(w.slab) == 0 {
			w.slab = make([]alarm, alarmSlab)
		}
		a, w.slab = &w.slab[0], w.slab[1:]
		a.w = w
		a.ring = a.fire
	}
	a.gen = w.gen
	w.net.After(delayUs, a.ring)
}

// disarm makes every queued arming stale.
func (w *watchdog) disarm() { w.gen++ }

func (a *alarm) fire() {
	w := a.w
	live := a.gen == w.gen
	a.next, w.free = w.free, a
	if live {
		w.expire()
	}
}

// RunWhile processes events until the queue drains, the optional budget
// of deliveries is exhausted (budget <= 0 means unbounded) or cond (if
// not nil), checked before each event, returns false. It returns the
// virtual time reached. Pending events (retransmission timers, in-flight
// messages) stay queued for the next call, so the virtual clock reflects
// when the condition was met rather than when the queue drained.
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
