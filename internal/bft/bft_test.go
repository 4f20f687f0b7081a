package bft

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// appendSM is a deterministic state machine: a log of applied ops whose
// Apply result encodes (position, op).
type appendSM struct {
	ops []string
}

func (s *appendSM) Apply(op []byte) []byte {
	s.ops = append(s.ops, string(op))
	return []byte(fmt.Sprintf("%d:%s", len(s.ops), op))
}

func newGroup(f int) (*Group, []*appendSM) {
	sms := make([]*appendSM, 3*f+1)
	g := NewGroup(f, func(i int) StateMachine {
		sms[i] = &appendSM{}
		return sms[i]
	})
	return g, sms
}

func TestHappyPathSingleOp(t *testing.T) {
	g, sms := newGroup(1)
	res, lat, err := g.Invoke([]byte("op-a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:op-a" {
		t.Errorf("result = %q", res)
	}
	if lat <= 0 {
		t.Errorf("latency = %d", lat)
	}
	for i, sm := range sms {
		if len(sm.ops) != 1 || sm.ops[0] != "op-a" {
			t.Errorf("replica %d log = %v", i, sm.ops)
		}
	}
}

func TestSequentialOpsTotalOrder(t *testing.T) {
	g, sms := newGroup(1)
	for i := 0; i < 5; i++ {
		op := fmt.Sprintf("op-%d", i)
		res, _, err := g.Invoke([]byte(op))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		want := fmt.Sprintf("%d:%s", i+1, op)
		if string(res) != want {
			t.Errorf("op %d result = %q, want %q", i, res, want)
		}
	}
	ref := strings.Join(sms[0].ops, ",")
	for i, sm := range sms {
		if got := strings.Join(sm.ops, ","); got != ref {
			t.Errorf("replica %d order %q != %q", i, got, ref)
		}
	}
}

func TestToleratesSilentBackup(t *testing.T) {
	g, sms := newGroup(1)
	// Replica 2 (a backup) is completely silent.
	silent := ReplicaID(2)
	g.Net.Drop = func(from, to ID, _ Message) bool { return from == silent }
	res, _, err := g.Invoke([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:x" {
		t.Errorf("result = %q", res)
	}
	// Honest replicas executed.
	executed := 0
	for _, sm := range sms {
		if len(sm.ops) == 1 {
			executed++
		}
	}
	if executed < 2*1+1 {
		t.Errorf("only %d replicas executed", executed)
	}
}

func TestToleratesSilentPrimaryViaViewChange(t *testing.T) {
	g, _ := newGroup(1)
	primary := ReplicaID(0)
	g.Net.Drop = func(from, to ID, _ Message) bool { return from == primary }
	res, _, err := g.Invoke([]byte("y"))
	if err != nil {
		t.Fatalf("view change did not recover: %v", err)
	}
	if string(res) != "1:y" {
		t.Errorf("result = %q", res)
	}
	for _, r := range g.Replicas[1:] {
		if r.View() == 0 {
			t.Errorf("%v still in view 0 after faulty primary", r)
		}
	}
}

func TestProgressAfterViewChange(t *testing.T) {
	g, _ := newGroup(1)
	primary := ReplicaID(0)
	g.Net.Drop = func(from, to ID, _ Message) bool { return from == primary }
	if _, _, err := g.Invoke([]byte("a")); err != nil {
		t.Fatal(err)
	}
	// Second op in the new view must also succeed.
	res, _, err := g.Invoke([]byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "2:b" {
		t.Errorf("result = %q", res)
	}
}

func TestCorruptReplicaOutvoted(t *testing.T) {
	g, _ := newGroup(1)
	g.Replicas[1].CorruptResults = true
	res, _, err := g.Invoke([]byte("z"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:z" {
		t.Errorf("client accepted corrupt result %q", res)
	}
}

func TestF2Group(t *testing.T) {
	g, sms := newGroup(2)
	// Two silent backups (the max for f=2).
	s1, s2 := ReplicaID(3), ReplicaID(5)
	g.Net.Drop = func(from, to ID, _ Message) bool { return from == s1 || from == s2 }
	res, _, err := g.Invoke([]byte("w"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "1:w" {
		t.Errorf("result = %q", res)
	}
	executed := 0
	for _, sm := range sms {
		if len(sm.ops) == 1 {
			executed++
		}
	}
	if executed < 5 {
		t.Errorf("executed on %d replicas, want >= 2f+1 = 5", executed)
	}
}

func TestDuplicateRequestNotReExecuted(t *testing.T) {
	g, sms := newGroup(1)
	if _, _, err := g.Invoke([]byte("once")); err != nil {
		t.Fatal(err)
	}
	// Retransmit the identical request (same client seq) manually.
	req := Request{Client: g.Client.ID(), Seq: 1, Op: []byte("once")}
	for _, r := range g.Replicas {
		g.Net.Send(g.Client.ID(), r.ID(), req)
	}
	g.Net.Run(0)
	for i, sm := range sms {
		if len(sm.ops) != 1 {
			t.Errorf("replica %d executed %d times", i, len(sm.ops))
		}
	}
}

func TestClientRejectsConcurrentCalls(t *testing.T) {
	g, _ := newGroup(1)
	if err := g.Client.Invoke([]byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Client.Invoke([]byte("b"), nil); err == nil {
		t.Error("second outstanding call should be rejected")
	}
}

func TestLatencyScalesWithF(t *testing.T) {
	g1, _ := newGroup(1)
	_, lat1, err := g1.Invoke([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	g3, _ := newGroup(3)
	_, lat3, err := g3.Invoke([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if lat3 < lat1 {
		t.Errorf("f=3 latency %d < f=1 latency %d", lat3, lat1)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (string, int64) {
		g, sms := newGroup(1)
		for i := 0; i < 3; i++ {
			if _, _, err := g.Invoke([]byte(fmt.Sprintf("op%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return strings.Join(sms[0].ops, ","), g.Net.Now()
	}
	ops1, t1 := run()
	ops2, t2 := run()
	if ops1 != ops2 || t1 != t2 {
		t.Errorf("nondeterministic: (%q,%d) vs (%q,%d)", ops1, t1, ops2, t2)
	}
}

func TestRequestDigestBindsIdentity(t *testing.T) {
	a := Request{Client: "c", Seq: 1, Op: []byte("op")}
	b := Request{Client: "c", Seq: 2, Op: []byte("op")}
	c := Request{Client: "d", Seq: 1, Op: []byte("op")}
	d := Request{Client: "c", Seq: 1, Op: []byte("other")}
	if a.Digest() == b.Digest() || a.Digest() == c.Digest() || a.Digest() == d.Digest() {
		t.Error("digest collisions across distinct requests")
	}
	if a.Digest() != (Request{Client: "c", Seq: 1, Op: []byte("op")}).Digest() {
		t.Error("digest not deterministic")
	}
}

// TestRequestIdentityAsFormatted pins the digest and the re-proposal
// order to the text they were formatted from: SHA-256 of "client|seq|"
// and the op, whatever the op's length, and the string order of
// "client|seq" — where "ab|1" precedes "a|1" and "a|12" precedes "a|9".
func TestRequestIdentityAsFormatted(t *testing.T) {
	reqs := []Request{
		{Client: "a", Seq: 9, Op: []byte("op")}, {Client: "a", Seq: 12}, {Client: "ab", Seq: 1, Op: bytes.Repeat([]byte("x"), 300)},
		{Client: "a", Seq: 1}, {Client: "client-0", Seq: 10}, {Client: "client-0", Seq: 2}, {Client: "A", Seq: 1 << 63},
	}
	text := func(r Request) string { return fmt.Sprintf("%s|%d", r.Client, r.Seq) }
	for _, r := range reqs {
		if want := Digest(sha256.Sum256(append([]byte(text(r)+"|"), r.Op...))); r.Digest() != want {
			t.Errorf("Digest(%s) = %x, want %x", text(r), r.Digest(), want)
		}
	}
	got, want := slices.Clone(reqs), slices.Clone(reqs)
	sortByKey(got)
	sort.Slice(want, func(i, j int) bool { return text(want[i]) < text(want[j]) })
	for i := range got {
		if text(got[i]) != text(want[i]) {
			t.Fatalf("re-proposal order %d: %s, want %s", i, text(got[i]), text(want[i]))
		}
	}
}

func TestNetworkDropAndTrace(t *testing.T) {
	net := NewNetwork()
	var got []string
	net.Register("a", handlerFunc(func(from ID, msg Message) {
		got = append(got, fmt.Sprintf("%s:%v", from, msg))
	}))
	net.Drop = func(from, to ID, _ Message) bool { return from == "blocked" }
	traced := 0
	net.Trace = func(from, to ID, msg Message) { traced++ }
	net.Send("blocked", "a", "nope")
	net.Send("ok", "a", "hi")
	net.Run(0)
	if len(got) != 1 || got[0] != "ok:hi" {
		t.Errorf("got %v", got)
	}
	if traced != 1 || net.Delivered() != 1 {
		t.Errorf("trace=%d delivered=%d", traced, net.Delivered())
	}
}

type handlerFunc func(from ID, msg Message)

func (f handlerFunc) Receive(from ID, msg Message) { f(from, msg) }

func TestNetworkDeliveryOrdering(t *testing.T) {
	net := NewNetwork()
	var order []string
	net.Register("x", handlerFunc(func(_ ID, msg Message) {
		order = append(order, msg.(string))
	}))
	net.Delay = func(from, to ID) int64 {
		if from == "slow" {
			return 5000
		}
		return 1000
	}
	net.Send("slow", "x", "second")
	net.Send("fast", "x", "first")
	net.Run(0)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestReplicaStringAndIDs(t *testing.T) {
	g, _ := newGroup(1)
	// These names go on the wire (request digests, peer and reply
	// addressing), so a default group's are pinned byte for byte.
	for i, r := range g.Replicas {
		if want := ID(fmt.Sprintf("replica-%d", i)); r.ID() != want || ReplicaID(i) != want {
			t.Errorf("replica %d: ID = %q, ReplicaID = %q, want %q", i, r.ID(), ReplicaID(i), want)
		}
	}
	if g.Client.ID() != "client-0" {
		t.Errorf("client ID = %q, want client-0", g.Client.ID())
	}
	if !strings.Contains(g.Replicas[0].String(), "view=0") {
		t.Errorf("String = %q", g.Replicas[0].String())
	}
}

func TestResultBytesAreCopied(t *testing.T) {
	g, _ := newGroup(1)
	op := []byte("mut")
	var res []byte
	err := g.Client.Invoke(op, func(r []byte) { res = r })
	if err != nil {
		t.Fatal(err)
	}
	op[0] = 'X' // mutate caller's buffer after Invoke
	g.Net.Run(0)
	if !bytes.Contains(res, []byte("mut")) {
		t.Errorf("result %q affected by caller mutation", res)
	}
}
