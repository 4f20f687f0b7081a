package vtime

import (
	"container/heap"
	"reflect"
	"testing"
)

// oracle is the queue this package replaced, kept as the reference: the
// (at, seq) min-heap on container/heap that mapred.Engine and
// bft.Network each carried a copy of.
type oracle struct {
	now, seq int64
	events   oracleHeap
}

type oracleHeap []event

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (o *oracle) Now() int64 { return o.now }

func (o *oracle) After(delayUs int64, fn func()) {
	if delayUs < 0 {
		delayUs = 0
	}
	o.seq++
	heap.Push(&o.events, event{at: o.now + delayUs, seq: o.seq, fn: fn})
}

func (o *oracle) Step() bool {
	if len(o.events) == 0 {
		return false
	}
	ev := heap.Pop(&o.events).(event)
	o.now = ev.at
	ev.fn()
	return true
}

// clock is what a program sees of either queue.
type clock interface {
	Now() int64
	After(delayUs int64, fn func())
	Step() bool
}

// fired is one event as it ran: which one, and when.
type fired struct {
	id int
	at int64
}

// play interprets prog against c and returns the firing log. Each byte
// schedules one event: the low five bits are its delay (so equal times
// are common) with the top value standing for a negative delay, and the
// high three bits say how many of the following bytes the event itself
// schedules when it runs. Steps are interleaved with top-level
// scheduling, and the queue is drained at the end.
func play(c clock, prog []byte) []fired {
	var log []fired
	next := 0
	pos := 0
	var schedule func(b byte)
	schedule = func(b byte) {
		id := next
		next++
		delay := int64(b&31) * 3
		if b&31 == 31 {
			delay = -5
		}
		children := int(b >> 5)
		c.After(delay, func() {
			log = append(log, fired{id, c.Now()})
			for i := 0; i < children && pos < len(prog); i++ {
				b := prog[pos]
				pos++
				schedule(b)
			}
		})
	}
	for pos < len(prog) {
		b := prog[pos]
		pos++
		schedule(b)
		if b&3 == 0 {
			c.Step()
		}
	}
	for c.Step() {
	}
	return log
}

// FuzzQueueMatchesContainerHeap: the hand-kept heap fires every event
// at the time, and in the order, the container/heap queue does — by
// (time, scheduling order), first-in first-out at equal times, with
// events scheduling further events from inside a running one.
func FuzzQueueMatchesContainerHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{31, 1, 31, 1, 0})
	f.Add([]byte{0xe5, 1, 1, 1, 0x45, 9, 9, 2, 3, 0xff, 0, 0, 7, 7, 7})
	f.Fuzz(func(t *testing.T, prog []byte) {
		got, want := play(&Queue{}, prog), play(&oracle{}, prog)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("firing order diverges from container/heap:\ngot  %v\nwant %v", got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				t.Fatalf("clock ran backwards: %v then %v", got[i-1], got[i])
			}
		}
	})
}

func TestQueueOrderAndClock(t *testing.T) {
	var q Queue
	var log []string
	q.After(10, func() { log = append(log, "b") })
	q.After(10, func() {
		log = append(log, "c")
		q.After(0, func() { log = append(log, "e") }) // same instant, scheduled last
	})
	q.After(-4, func() { log = append(log, "a") }) // negative delay means now
	q.After(10, func() { log = append(log, "d") })
	if q.Pending() != 4 || q.Now() != 0 {
		t.Fatalf("len = %d now = %d before any step", q.Pending(), q.Now())
	}
	for q.Step() {
	}
	if !reflect.DeepEqual(log, []string{"a", "b", "c", "d", "e"}) {
		t.Errorf("fired %v, want a b c d e", log)
	}
	if q.Now() != 10 || q.Pending() != 0 || q.Step() {
		t.Errorf("after drain: now = %d len = %d", q.Now(), q.Pending())
	}
}
