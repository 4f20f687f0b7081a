package bft

import (
	"fmt"
	"strings"
	"testing"
)

// TestEquivocatingPrimarySafety: the primary proposes different requests
// for the same sequence number to different backups. Safety must hold:
// no two honest replicas execute different operations at the same log
// position (liveness may require a view change, which the client's
// retransmission triggers).
func TestEquivocatingPrimarySafety(t *testing.T) {
	g, sms := newGroup(1)
	primary := ReplicaID(0)
	// The primary equivocates: pre-prepares sent to replicas 2 and 3
	// carry a different (forged) request for the same slot.
	g.Net.Transform = func(from, to ID, msg Message) Message {
		pp, ok := msg.(PrePrepare)
		if !ok || from != primary {
			return msg
		}
		if to == ReplicaID(2) || to == ReplicaID(3) {
			forged := Request{Client: pp.Request.Client, Seq: pp.Request.Seq, Op: []byte("forged")}
			return PrePrepare{View: pp.View, Seq: pp.Seq, Digest: forged.Digest(), Request: forged}
		}
		return msg
	}
	res, _, err := g.Invoke([]byte("real"))
	// Either the protocol converges on exactly one of the two ops, or it
	// cannot settle at all. Both are safe; divergent execution is not.
	if err == nil {
		if string(res) != "1:real" && string(res) != "1:forged" {
			t.Errorf("settled on unexpected result %q", res)
		}
	}
	// Drain with a bounded budget: an unsettled client retransmits
	// forever, so an unbounded drain would never return.
	g.Net.RunWhile(100_000, nil)
	// No two replicas may hold different first log entries.
	var first string
	for i, sm := range sms {
		if len(sm.ops) == 0 {
			continue
		}
		if first == "" {
			first = sm.ops[0]
		} else if sm.ops[0] != first {
			t.Fatalf("replica %d executed %q at slot 1, another executed %q — safety violated",
				i, sm.ops[0], first)
		}
	}
}

// TestCorruptedPrepareVotesIgnored: a Byzantine backup sends prepare
// votes with wrong digests; quorums must not count them.
func TestCorruptedPrepareVotesIgnored(t *testing.T) {
	g, _ := newGroup(1)
	evil := ReplicaID(3)
	g.Net.Transform = func(from, to ID, msg Message) Message {
		if from != evil {
			return msg
		}
		switch m := msg.(type) {
		case Prepare:
			m.Digest[0] ^= 0xFF
			return m
		case Commit:
			m.Digest[0] ^= 0xFF
			return m
		}
		return msg
	}
	res, _, err := g.Invoke([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:x" {
		t.Errorf("result = %q", res)
	}
}

// TestPipelineManyOps pushes a longer sequence through the group and
// checks order and results stay consistent.
func TestPipelineManyOps(t *testing.T) {
	g, sms := newGroup(1)
	for i := 0; i < 20; i++ {
		op := fmt.Sprintf("op-%02d", i)
		res, _, err := g.Invoke([]byte(op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := fmt.Sprintf("%d:%s", i+1, op)
		if string(res) != want {
			t.Fatalf("op %d: result %q, want %q", i, res, want)
		}
	}
	ref := strings.Join(sms[0].ops, "|")
	for i, sm := range sms {
		if strings.Join(sm.ops, "|") != ref {
			t.Errorf("replica %d log diverged", i)
		}
	}
}

// TestSuccessiveViewChanges: two consecutive faulty primaries; the third
// view's primary makes progress.
func TestSuccessiveViewChanges(t *testing.T) {
	g, _ := newGroup(1)
	dead0, dead1 := ReplicaID(0), ReplicaID(1)
	// Primary of view 0 is silent; the would-be primary of view 1 is
	// silent too... but two silent replicas exceed f=1, so instead make
	// primary 0 silent and primary 1 drop only its NewView/PrePrepare
	// duties (it still votes, staying within f=1 "Byzantine" count by
	// being the single faulty node after 0 recovers).
	phase := 0
	g.Net.Drop = func(from, to ID, msg Message) bool {
		if from == dead0 {
			return true
		}
		if phase == 0 && from == dead1 {
			switch msg.(type) {
			case NewView, PrePrepare:
				return true // view-1 primary won't lead
			}
		}
		return false
	}
	res, _, err := g.Invoke([]byte("persist"))
	if err != nil {
		t.Fatalf("no progress after successive view changes: %v", err)
	}
	if string(res) != "1:persist" {
		t.Errorf("result = %q", res)
	}
	for _, r := range g.Replicas[2:] {
		if r.view < 2 {
			t.Errorf("%v should have reached view >= 2", r)
		}
	}
}

// TestTransformHookIdentity: a pass-through transform changes nothing.
func TestTransformHookIdentity(t *testing.T) {
	g, _ := newGroup(1)
	g.Net.Transform = func(_, _ ID, msg Message) Message { return msg }
	res, _, err := g.Invoke([]byte("same"))
	if err != nil || string(res) != "1:same" {
		t.Errorf("res=%q err=%v", res, err)
	}
}

// TestForgedVotesCannotSplitASlot: an equivocating primary sends a forged
// pre-prepare to replica 1 alone, backed by prepare and commit votes
// signed with three names outside the group. Votes count once per
// authenticated sender and only from members, so the forged proposal
// never gathers a quorum and no honest replica executes it beside the
// real one at the same slot.
func TestForgedVotesCannotSplitASlot(t *testing.T) {
	g, sms := newGroup(1)
	primary, target := ReplicaID(0), ReplicaID(1)
	g.Net.Transform = func(from, to ID, msg Message) Message {
		pp, ok := msg.(PrePrepare)
		if !ok || from != primary || to != target {
			return msg
		}
		forged := Request{Client: pp.Request.Client, Seq: pp.Request.Seq, Op: []byte("forged")}
		d := forged.Digest()
		for k := 1; k <= 3; k++ {
			ghost := ID(fmt.Sprintf("ghost-%d", k))
			g.Net.Send(primary, target, Prepare{View: pp.View, Seq: pp.Seq, Digest: d, Replica: ghost})
			g.Net.Send(primary, target, Commit{View: pp.View, Seq: pp.Seq, Digest: d, Replica: ghost})
		}
		return PrePrepare{View: pp.View, Seq: pp.Seq, Digest: d, Request: forged}
	}
	res, _, err := g.Invoke([]byte("real"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:real" {
		t.Errorf("result = %q, want 1:real", res)
	}
	g.Net.RunWhile(20_000, nil)
	for i, sm := range sms[1:] {
		if len(sm.ops) > 0 && sm.ops[0] != "real" {
			t.Errorf("honest replica %d executed %q at slot 1; the others executed real", i+1, sm.ops[0])
		}
	}
}

// TestForgedRepliesCannotSettleTheClient: a Byzantine replica returns a
// wrong result and sends it a second time under a name outside the
// group, over a link faster than the honest replicas'. The client counts
// one vote per authenticated group member, so the pair is one vote and
// the honest result wins.
func TestForgedRepliesCannotSettleTheClient(t *testing.T) {
	g, _ := newGroup(1)
	evil, client := ReplicaID(3), g.Client.id
	g.Net.Delay = func(from, to ID) int64 {
		if to == client && from != evil {
			return 3_000
		}
		return 1_000
	}
	g.Net.Transform = func(from, to ID, msg Message) Message {
		rep, ok := msg.(Reply)
		if !ok || from != evil || rep.Replica != evil {
			return msg
		}
		rep.Result = []byte("1:evil")
		ghost := rep
		ghost.Replica = "ghost"
		g.Net.Send(evil, to, ghost)
		return rep
	}
	res, _, err := g.Invoke([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:x" {
		t.Errorf("client accepted %q, want 1:x", res)
	}
}

// TestClientTalliesDistinctResults: every member reports a different
// result, then one repeats another's. No result settles on one vote,
// and the tally holds as many distinct results as arrive.
func TestClientTalliesDistinctResults(t *testing.T) {
	net := NewNetwork()
	c := NewClient(net, "0", 1)
	var got []byte
	if err := c.Invoke([]byte("op"), func(r []byte) { got = r }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		net.Send(ReplicaID(i), c.id, Reply{ReqSeq: 1, Replica: ReplicaID(i), Result: []byte{byte('a' + i)}})
	}
	// The replicas are not on the bus: the client's sends go nowhere, and
	// only the replies above are delivered, before its retry timer.
	for net.Delivered() < 4 {
		net.Step()
	}
	if got != nil {
		t.Fatalf("settled on %q with one vote each", got)
	}
	net.Send(ReplicaID(0), c.id, Reply{ReqSeq: 1, Replica: ReplicaID(0), Result: []byte("d")})
	for net.Delivered() < 5 {
		net.Step()
	}
	if string(got) != "d" {
		t.Errorf("result = %q, want d", got)
	}
}
