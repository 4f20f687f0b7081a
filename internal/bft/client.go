package bft

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Client invokes operations against a replica group and accepts a result
// once f+1 replicas report the same bytes — the commission-fault
// detection rule of §2.1.
type Client struct {
	id       ID
	net      *Network
	replicas []ID
	f        int
	seq      uint64

	// RetryTimeoutUs is how long to wait for f+1 matching replies before
	// retransmitting to all replicas.
	RetryTimeoutUs int64

	// The latest call, request number seq. Its state is reused from one
	// call to the next.
	open  bool    // a call awaits f+1 matching replies
	msg   Message // its Request, boxed once for every send
	done  func([]byte)
	tally []tally // distinct results received, entries reused
	retry watchdog
}

// tally is one distinct result the outstanding call received, with the
// replicas that reported it.
type tally struct {
	result []byte
	voters []uint64 // bit i: replica i reported result
}

// NewClient registers a client for a group of n = 3f+1 replicas.
func NewClient(net *Network, name string, f int) *Client {
	c := &Client{
		id:             ID("client-" + name),
		net:            net,
		f:              f,
		RetryTimeoutUs: 150_000,
	}
	for i := 0; i < 3*f+1; i++ {
		c.replicas = append(c.replicas, ReplicaID(i))
	}
	c.retry = watchdog{net: net, expire: c.broadcast}
	net.Register(c.id, c)
	return c
}

// Invoke submits op for ordered execution; done fires exactly once with
// the f+1-matching result. Only one call may be outstanding per client.
func (c *Client) Invoke(op []byte, done func([]byte)) error {
	if c.open {
		return errors.New("bft: client has an outstanding call")
	}
	c.seq++
	c.msg = Request{Client: c.id, Seq: c.seq, Op: append([]byte(nil), op...)}
	c.done, c.tally, c.open = done, c.tally[:0], true
	c.broadcast()
	return nil
}

// broadcast transmits the outstanding request to every replica and
// arms the retransmission timer.
func (c *Client) broadcast() {
	for _, r := range c.replicas {
		c.net.Send(c.id, r, c.msg)
	}
	c.retry.arm(c.RetryTimeoutUs)
}

// Receive implements Handler: tally replies until f+1 members match.
// A reply counts once for the replica that sent it, whatever replica
// it names.
func (c *Client) Receive(from ID, msg Message) {
	rep, ok := msg.(Reply)
	i := slices.Index(c.replicas, from)
	if !ok || !c.open || rep.ReqSeq != c.seq || i < 0 {
		return
	}
	t := c.tallyFor(rep.Result)
	t.voters[i/64] |= 1 << (i % 64)
	n := 0
	for _, w := range t.voters {
		n += bits.OnesCount64(w)
	}
	if n >= c.f+1 {
		c.open = false
		c.retry.disarm()
		if c.done != nil {
			c.done(append([]byte(nil), t.result...))
		}
	}
}

// tallyFor returns the outstanding call's tally for result, starting
// one (in a reused entry where there is one) on its first report.
func (c *Client) tallyFor(result []byte) *tally {
	for k := range c.tally {
		if bytes.Equal(c.tally[k].result, result) {
			return &c.tally[k]
		}
	}
	c.tally = slices.Grow(c.tally, 1)[:len(c.tally)+1]
	t := &c.tally[len(c.tally)-1]
	if t.voters == nil {
		t.voters = make([]uint64, (len(c.replicas)+63)/64)
	}
	t.result = result
	clear(t.voters)
	return t
}

// Group bundles a network, 3f+1 replicas and a client into a runnable
// control-tier cluster; ClusterBFT's §6.4 configuration instantiates the
// request handler behind one of these.
type Group struct {
	Net      *Network
	Replicas []*Replica
	Client   *Client
	F        int

	// The running Invoke's outcome, and its two callbacks bound once.
	result   []byte
	settled  bool
	onResult func([]byte)
	waiting  func() bool
}

// NewGroup builds a group of 3f+1 replicas over fresh state machines
// produced by smFactory (one per replica — they must be deterministic
// and mutually consistent).
func NewGroup(f int, smFactory func(i int) StateMachine) *Group {
	net := NewNetwork()
	g := &Group{Net: net, F: f}
	for i := 0; i < 3*f+1; i++ {
		g.Replicas = append(g.Replicas, NewReplica(net, i, f, smFactory(i)))
	}
	g.Client = NewClient(net, "0", f)
	g.onResult = g.settle
	g.waiting = g.unsettled
	return g
}

func (g *Group) settle(res []byte) { g.result, g.settled = res, true }

func (g *Group) unsettled() bool { return !g.settled }

// Invoke runs one operation synchronously through the group and returns
// the agreed result plus the virtual time the invocation took. It fails
// if the network drains without agreement.
func (g *Group) Invoke(op []byte) ([]byte, int64, error) {
	g.result, g.settled = nil, false
	start := g.Net.Now()
	if err := g.Client.Invoke(op, g.onResult); err != nil {
		return nil, 0, err
	}
	// Run just until the client accepts a result (leaving retransmission
	// timers queued), bounded so a broken group cannot churn view
	// changes forever.
	g.Net.RunWhile(2_000_000, g.waiting)
	if !g.settled {
		return nil, 0, fmt.Errorf("bft: no agreement for op (%d msgs delivered)", g.Net.Delivered())
	}
	return g.result, g.Net.Now() - start, nil
}
