package pool

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFutureReturnsResult(t *testing.T) {
	p := New(2)
	f := Go(p, func(int) int { return 42 })
	if got, err := f.Wait(); got != 42 || err != nil {
		t.Fatalf("Wait = %d, %v, want 42", got, err)
	}
	// Wait is idempotent.
	if got, err := f.Wait(); got != 42 || err != nil {
		t.Fatalf("second Wait = %d, %v, want 42", got, err)
	}
}

func TestDefaultSize(t *testing.T) {
	if New(0).Size() < 1 {
		t.Error("default pool must have at least one slot")
	}
	if got := New(7).Size(); got != 7 {
		t.Errorf("Size = %d, want 7", got)
	}
}

func TestConcurrencyBounded(t *testing.T) {
	const bound = 3
	p := New(bound)
	var active, peak int64
	var mu sync.Mutex
	release := make(chan struct{})
	var futs []*Future[struct{}]
	for i := 0; i < 20; i++ {
		futs = append(futs, Go(p, func(int) struct{} {
			n := atomic.AddInt64(&active, 1)
			mu.Lock()
			if n > peak {
				peak = n
			}
			mu.Unlock()
			<-release
			atomic.AddInt64(&active, -1)
			return struct{}{}
		}))
	}
	close(release)
	for _, f := range futs {
		f.Wait()
	}
	if peak > bound {
		t.Errorf("observed %d concurrent tasks, bound is %d", peak, bound)
	}
	if peak < 1 {
		t.Error("no task ever ran")
	}
}

func TestWaitInSubmissionOrderIsDeterministic(t *testing.T) {
	p := New(4)
	var futs []*Future[int]
	for i := 0; i < 50; i++ {
		futs = append(futs, Go(p, func(int) int { return i * i }))
	}
	for i, f := range futs {
		if got, _ := f.Wait(); got != i*i {
			t.Fatalf("future %d = %d, want %d", i, got, i*i)
		}
	}
}

// TestSlotsAreExclusive: a body holds its slot alone. Every body bumps a
// plain, unsynchronized counter of its slot and checks nobody else did
// meanwhile; under -race a second holder is a reported data race.
func TestSlotsAreExclusive(t *testing.T) {
	const size = 3
	p := New(size)
	state := make([]int, size)
	var futs []*Future[bool]
	for i := 0; i < 200; i++ {
		futs = append(futs, Go(p, func(slot int) bool {
			state[slot]++
			seen := state[slot]
			for spin := 0; spin < 100; spin++ {
				if state[slot] != seen {
					return false
				}
			}
			return true
		}))
	}
	for i, f := range futs {
		if alone, err := f.Wait(); !alone || err != nil {
			t.Fatalf("body %d shared its slot (err %v)", i, err)
		}
	}
	total := 0
	for _, n := range state {
		total += n
	}
	if total != 200 {
		t.Errorf("slots counted %d bodies, want 200", total)
	}
}

// TestPanicIsAnErrorAndFreesTheSlot: a panicking body ends in an error
// that names the panic, not in a dead process, and its slot serves the
// next body.
func TestPanicIsAnErrorAndFreesTheSlot(t *testing.T) {
	p := New(1)
	got, err := Go(p, func(int) int { panic("boom") }).Wait()
	if err == nil || got != 0 || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Wait after a panic = %d, %v; want 0 and an error naming it", got, err)
	}
	if got, err := Go(p, func(slot int) int { return slot + 7 }).Wait(); got != 7 || err != nil {
		t.Fatalf("the body after a panic got %d, %v; want slot 0 back", got, err)
	}
	// A body that panics with an error is reported by one that wraps it:
	// the caller can tell a failure it knows from a bug.
	if _, err := Go(p, func(int) int { panic(fmt.Errorf("read: %w", io.ErrUnexpectedEOF)) }).Wait(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Wait after panic(err) = %v; want it to wrap the error", err)
	}
}
