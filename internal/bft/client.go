package bft

import (
	"errors"
	"fmt"
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

	call *pendingCall
}

type pendingCall struct {
	req     Request
	votes   map[string]map[ID]bool // result bytes -> voters
	done    func([]byte)
	settled bool
	gen     int
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
	net.Register(c.id, c)
	return c
}

// ID returns the client's network identity.
func (c *Client) ID() ID { return c.id }

// Invoke submits op for ordered execution; done fires exactly once with
// the f+1-matching result. Only one call may be outstanding per client.
func (c *Client) Invoke(op []byte, done func([]byte)) error {
	if c.call != nil && !c.call.settled {
		return errors.New("bft: client has an outstanding call")
	}
	c.seq++
	req := Request{Client: c.id, Seq: c.seq, Op: append([]byte(nil), op...)}
	c.call = &pendingCall{req: req, votes: make(map[string]map[ID]bool), done: done}
	c.send(true)
	return nil
}

// send transmits the current request; broadcast false sends only to the
// presumed primary (view 0 optimization), true to every replica.
func (c *Client) send(broadcast bool) {
	call := c.call
	if broadcast {
		for _, r := range c.replicas {
			c.net.Send(c.id, r, call.req)
		}
	} else {
		c.net.Send(c.id, c.replicas[0], call.req)
	}
	call.gen++
	gen := call.gen
	c.net.After(c.RetryTimeoutUs, func() {
		if call.settled || gen != call.gen {
			return
		}
		c.send(true)
	})
}

// Receive implements Handler: tally replies until f+1 match.
func (c *Client) Receive(from ID, msg Message) {
	rep, ok := msg.(Reply)
	if !ok || c.call == nil || c.call.settled || rep.ReqSeq != c.call.req.Seq {
		return
	}
	key := string(rep.Result)
	voters := c.call.votes[key]
	if voters == nil {
		voters = make(map[ID]bool)
		c.call.votes[key] = voters
	}
	voters[rep.Replica] = true
	if len(voters) >= c.f+1 {
		c.call.settled = true
		c.call.gen++
		if c.call.done != nil {
			c.call.done([]byte(key))
		}
	}
}

// Group bundles a network, 3f+1 replicas and a client into a runnable
// control-tier cluster; ClusterBFT's §6.4 configuration instantiates the
// request handler behind one of these.
type Group struct {
	Net      *Network
	Replicas []*Replica
	Client   *Client
	F        int
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
	return g
}

// Invoke runs one operation synchronously through the group and returns
// the agreed result plus the virtual time the invocation took. It fails
// if the network drains without agreement.
func (g *Group) Invoke(op []byte) ([]byte, int64, error) {
	var result []byte
	settled := false
	start := g.Net.Now()
	err := g.Client.Invoke(op, func(res []byte) {
		result = res
		settled = true
	})
	if err != nil {
		return nil, 0, err
	}
	// Run just until the client accepts a result (leaving retransmission
	// timers queued), bounded so a broken group cannot churn view
	// changes forever.
	g.Net.RunWhile(2_000_000, func() bool { return !settled })
	if !settled {
		return nil, 0, fmt.Errorf("bft: no agreement for op (%d msgs delivered)", g.Net.Delivered())
	}
	return result, g.Net.Now() - start, nil
}
