package bft

import (
	"fmt"
	"testing"
)

// countByteSM numbers operations in a 1-byte result, the shape of a
// request handler that acknowledges ordered verdict batches.
type countByteSM struct{ n int }

func (s *countByteSM) Apply([]byte) []byte {
	s.n++
	return []byte{byte(s.n)}
}

// order63 builds a fresh f = 1 group and orders 63 operations through it
// one after another: one assured run's verdict batches.
func order63(tb testing.TB, op []byte) {
	g := NewGroup(1, func(int) StateMachine { return &countByteSM{} })
	for i := 0; i < 63; i++ {
		op = fmt.Appendf(op[:0], "verdict-batch-%d", i)
		if _, _, err := g.Invoke(op); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkGroupOrder63(b *testing.B) {
	op := make([]byte, 0, 32)
	b.ReportAllocs()
	for b.Loop() {
		order63(b, op)
	}
}

// TestInvokeAllocs pins one consensus instance's allocations, amortised
// over 63 on a fresh group: the op's copy, the message boxes and the
// state machine's result, with log entries, watchdog records and
// in-flight records recycled or slab-allocated.
func TestInvokeAllocs(t *testing.T) {
	op := make([]byte, 0, 32)
	perOp := testing.AllocsPerRun(5, func() { order63(t, op) }) / 63
	if perOp > 28 {
		t.Errorf("%.1f allocations per invocation, want <= 28", perOp)
	}
}

// TestSendStepAllocs: once the bus has recycled a record, sending a
// boxed message and delivering it allocates nothing.
func TestSendStepAllocs(t *testing.T) {
	net := NewNetwork()
	net.Register("b", handlerFunc(func(ID, Message) {}))
	var msg Message = Prepare{View: 1, Seq: 2, Replica: "a"}
	net.Send("a", "b", msg)
	net.Step()
	if n := testing.AllocsPerRun(100, func() {
		net.Send("a", "b", msg)
		net.Step()
	}); n != 0 {
		t.Errorf("warm Send + Step: %.1f allocations, want 0", n)
	}
}

// TestWatchdogRearmAllocs: re-arming a warm watchdog allocates nothing,
// and of two queued armings only the later one expires.
func TestWatchdogRearmAllocs(t *testing.T) {
	net := NewNetwork()
	expired := 0
	w := watchdog{net: net, expire: func() { expired++ }}
	w.arm(10)
	w.arm(10)
	net.RunWhile(0, nil)
	if expired != 1 {
		t.Fatalf("two armings expired %d times, want once", expired)
	}
	w.arm(10)
	w.disarm()
	net.RunWhile(0, nil)
	if expired != 1 {
		t.Fatalf("a disarmed watchdog expired")
	}
	if n := testing.AllocsPerRun(100, func() {
		w.arm(10)
		w.arm(10)
		net.Step()
		net.Step()
	}); n != 0 {
		t.Errorf("warm re-arm: %.1f allocations, want 0", n)
	}
}
