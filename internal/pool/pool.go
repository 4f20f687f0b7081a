// Package pool provides the bounded worker pool the MapReduce engine
// uses to compute task bodies off the simulation event loop. The pool
// bounds *concurrency* with a semaphore rather than keeping long-lived
// worker goroutines: each submission runs on its own goroutine that
// first acquires a slot, so an abandoned pool (engines have no Close)
// leaks nothing once in-flight work drains.
//
// Determinism contract: Submit returns a Future; callers that need
// reproducible behaviour must consume futures in a deterministic order
// (the engine waits in dispatch order), never race on which future
// finishes first.
package pool

import (
	"runtime"

	"clusterbft/internal/obs"
)

// Pool bounds how many submitted computations run concurrently.
type Pool struct {
	sem chan struct{}
	obs *obs.Counter // submissions; set by Instrument before first Go
}

// New builds a pool running at most size computations at once; size <= 0
// means runtime.GOMAXPROCS(0).
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, size)}
}

// Size returns the concurrency bound.
func (p *Pool) Size() int { return cap(p.sem) }

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

// Future is the pending result of one submitted computation. Wait is
// not safe for concurrent use: one goroutine owns the future.
type Future[T any] struct {
	ch   chan T
	val  T
	done bool
}

// Go submits fn to the pool and returns its future. fn runs on a fresh
// goroutine once a concurrency slot frees; it must not touch state the
// submitting goroutine mutates before the corresponding Wait.
func Go[T any](p *Pool, fn func() T) *Future[T] {
	p.obs.Inc()
	f := &Future[T]{ch: make(chan T, 1)}
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		f.ch <- fn()
	}()
	return f
}

// Wait blocks until fn finished and returns its result; repeated calls
// return the same value.
func (f *Future[T]) Wait() T {
	if !f.done {
		f.val = <-f.ch
		f.done = true
	}
	return f.val
}
