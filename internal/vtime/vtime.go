// Package vtime is the virtual-time kernel the simulators share: a
// clock and the queue of closures waiting on it. The MapReduce engine
// and the BFT message bus each embed one Queue.
package vtime

type event struct {
	at, seq int64
	fn      func()
}

func (a event) before(b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Queue is a deterministic event queue over virtual microseconds:
// events fire in time order, and events due at the same instant fire in
// the order they were scheduled. The zero value is an empty queue at
// time 0. Not safe for concurrent use: one goroutine drives it.
//
// The heap is kept by hand on the typed slice: container/heap's Push
// takes an any, which boxes every event.
type Queue struct {
	now, seq int64
	events   []event // binary min-heap under before
}

// Now returns the current virtual time in microseconds.
func (q *Queue) Now() int64 { return q.now }

// Pending returns the number of events waiting.
func (q *Queue) Pending() int { return len(q.events) }

// After schedules fn at now+delayUs; a negative delay means now.
func (q *Queue) After(delayUs int64, fn func()) {
	if delayUs < 0 {
		delayUs = 0
	}
	q.seq++
	h := append(q.events, event{at: q.now + delayUs, seq: q.seq, fn: fn})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.events = h
}

// Step advances the clock to the earliest waiting event and runs it;
// the event may schedule more. It reports false, running nothing, when
// the queue is empty.
func (q *Queue) Step() bool {
	h := q.events
	if len(h) == 0 {
		return false
	}
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the closure
	h = h[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	q.events = h
	q.now = ev.at
	ev.fn()
	return true
}
