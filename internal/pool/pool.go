// Package pool provides the bounded worker pool the MapReduce engine
// uses to compute task bodies off the simulation event loop. The pool
// bounds *concurrency* with a semaphore rather than keeping long-lived
// worker goroutines: each submission runs on its own goroutine that
// first acquires a slot, so an abandoned pool (engines have no Close)
// leaks nothing once in-flight work drains. The semaphore is a free list
// of slot indices: a body may keep state for the slot it is told it holds.
//
// Determinism contract: Submit returns a Future; callers that need
// reproducible behaviour must consume futures in a deterministic order
// (the engine waits in dispatch order), never race on which future
// finishes first.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"clusterbft/internal/obs"
)

// Pool bounds how many submitted computations run concurrently.
type Pool struct {
	free chan int     // the slots no computation holds
	obs  *obs.Counter // submissions; set by Instrument before first Go
}

// New builds a pool running at most size computations at once; size <= 0
// means runtime.GOMAXPROCS(0).
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{free: make(chan int, size)}
	for slot := 0; slot < size; slot++ {
		p.free <- slot
	}
	return p
}

// Size returns the concurrency bound; slots are numbered below it.
func (p *Pool) Size() int { return cap(p.free) }

// Instrument registers the pool into reg: its concurrency bound as a
// gauge and a counter of submitted computations. Call before the first
// Go; submissions already in flight keep the previous counter.
func (p *Pool) Instrument(reg *obs.Registry) {
	if p == nil || reg == nil {
		return
	}
	reg.Func("pool.size", func() int64 { return int64(p.Size()) })
	p.obs = reg.Counter("pool.tasks_submitted")
}

// Future is the pending result of one submitted computation.
type Future[T any] struct {
	done chan struct{} // closed once val and err are set
	val  T
	err  error
}

// Go submits fn to the pool and returns its future. fn runs on a fresh
// goroutine once a slot frees and is given the slot it holds until it
// returns; it must not touch state the submitting goroutine mutates
// before the corresponding Wait. A panic in fn ends there: the future
// reports it as an error, with the stack, wrapping the panic value if that
// is an error, and the slot is freed.
func Go[T any](p *Pool, fn func(slot int) T) *Future[T] {
	p.obs.Inc()
	f := &Future[T]{done: make(chan struct{})}
	go func() {
		slot := <-p.free
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok {
					err = fmt.Errorf("%v", r)
				}
				f.err = fmt.Errorf("pool: computation panicked: %w\n%s", err, debug.Stack())
			}
			p.free <- slot
			close(f.done)
		}()
		f.val = fn(slot)
	}()
	return f
}

// Wait blocks until fn finished and returns its result, or the zero
// value and an error if it panicked; repeated calls return the same.
func (f *Future[T]) Wait() (T, error) {
	<-f.done
	return f.val, f.err
}
