// Package digest implements ClusterBFT's approximate output comparison
// (paper §3.3, §4.1): instead of shipping whole replica outputs to the
// trusted tier, each task computes streaming SHA-256 digests of the
// canonical bytes of the tuples flowing through a verification point. A
// digest is emitted every d records ("approximation accuracy", §6.4) plus
// one final digest at stream close; the verifier then matches f+1 equal
// digests per (point, task, chunk) across replicas.
package digest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"clusterbft/internal/obs"
	"clusterbft/internal/tuple"
)

// Sum is a SHA-256 digest value.
type Sum [sha256.Size]byte

// String renders the first 8 bytes in hex, enough for logs.
func (s Sum) String() string { return hex.EncodeToString(s[:8]) }

// Key identifies a digest position independent of which replica produced
// it: corresponding digests from different replicas share a Key and must
// match.
type Key struct {
	SID   string // sub-graph (job) identifier
	Point int    // verification point: logical-plan vertex ID
	Task  string // task identity, stable across replicas (e.g. "m003")
	Chunk int    // chunk index within the task's stream
}

// String renders the key as "sid/point/task#chunk".
func (k Key) String() string {
	return fmt.Sprintf("%s/p%d/%s#%d", k.SID, k.Point, k.Task, k.Chunk)
}

// Report is one digest sent from a worker to the trusted verifier.
type Report struct {
	Key     Key
	Replica int   // which replica of the job produced it
	Final   bool  // closing chunk of the stream
	Records int64 // records covered by this chunk
	Sum     Sum
}

// Writer computes chunked digests over a tuple stream. Not safe for
// concurrent use; each task owns its writers.
type Writer struct {
	key     Key
	replica int
	every   int // records per chunk; <= 0 means a single final digest
	emit    func(Report)

	// Obs, when set, counts every record folded into the stream. Nil (the
	// default) is free: the alloc tests pin Add at zero allocations with
	// and without a counter.
	Obs *obs.Counter

	// also lists further verification points this writer reports under.
	also []int

	h       hash.Hash
	buf     []byte
	inChunk int64
	chunk   int
	closed  bool
}

// NewWriter returns a Writer that digests the stream for one verification
// point of one task. every is the paper's d parameter: a digest is
// emitted after each `every` records (and a final one at Close); every <=
// 0 disables chunking so only the final digest is produced. emit must be
// non-nil.
func NewWriter(key Key, replica, every int, emit func(Report)) *Writer {
	return &Writer{
		key:     key,
		replica: replica,
		every:   every,
		emit:    emit,
		h:       sha256.New(),
		buf:     make([]byte, 0, 128),
	}
}

// Also makes w report every chunk under verification point p as well,
// right after its own: two points that see the same records in the same
// order with the same chunking hash the same bytes, so one hash state
// serves both and their reports come out as two writers would have
// emitted them. Each record still counts once per point in Obs.
func (w *Writer) Also(p int) { w.also = append(w.also, p) }

// Points returns how many verification points w reports under.
func (w *Writer) Points() int { return 1 + len(w.also) }

// Add folds one tuple's canonical bytes into the current chunk, emitting
// a Report when the chunk fills.
func (w *Writer) Add(t tuple.Tuple) {
	if w.closed {
		return
	}
	w.buf = tuple.AppendCanonical(w.buf[:0], t)
	w.AddCanonical(w.buf)
}

// AddCanonical is Add for a record the caller has already encoded: canon
// must be tuple.AppendCanonical's bytes for exactly one tuple. A task
// whose operator chain digests the same tuple at several points encodes
// it once and hands every writer the same bytes.
func (w *Writer) AddCanonical(canon []byte) {
	if w.closed {
		return
	}
	w.h.Write(canon)
	w.inChunk++
	w.Obs.Add(int64(w.Points()))
	if w.every > 0 && w.inChunk >= int64(w.every) {
		w.flush(false)
	}
}

// Close emits the final digest covering any remaining records. The final
// digest is always emitted, even for an empty stream, so replicas that
// produce no output still report something comparable. Close is
// idempotent.
func (w *Writer) Close() {
	if w.closed {
		return
	}
	w.flush(true)
	w.closed = true
}

// Records returns the number of records folded into the current (open)
// chunk; used by tests.
func (w *Writer) Records() int64 { return w.inChunk }

func (w *Writer) flush(final bool) {
	r := Report{
		Key:     Key{SID: w.key.SID, Point: w.key.Point, Task: w.key.Task, Chunk: w.chunk},
		Replica: w.replica,
		Final:   final,
		Records: w.inChunk,
	}
	w.h.Sum(r.Sum[:0])
	w.emit(r)
	for _, p := range w.also {
		r.Key.Point = p
		w.emit(r)
	}
	w.h.Reset()
	w.inChunk = 0
	w.chunk++
}

// Buffer is a Report sink that records reports in emission order so a
// task body computed off the simulation goroutine can hand its digests
// back for deterministic replay at commit time. The zero value is ready
// to use. A Buffer is owned by one task attempt: Add runs on the worker
// computing the body, Replay on the committing goroutine; the engine's
// future handoff sequences the two, so no locking is needed here.
type Buffer struct {
	reports []Report
}

// Add records one report. It is the emit callback wired into the
// attempt's writers.
func (b *Buffer) Add(r Report) { b.reports = append(b.reports, r) }

// Len returns the number of buffered reports.
func (b *Buffer) Len() int { return len(b.reports) }

// Reports returns the buffered reports in emission order. The slice is
// shared; callers must not mutate it.
func (b *Buffer) Reports() []Report { return b.reports }

// Replay feeds the buffered reports to sink in emission order — the
// same order a Writer emitting straight into the sink would have
// produced. A nil sink is a no-op (digests disabled).
func (b *Buffer) Replay(sink func(Report)) {
	if sink == nil {
		return
	}
	for _, r := range b.reports {
		sink(r)
	}
}

// Of computes the one-shot digest of a full tuple stream; used by tests
// and by offline re-verification.
func Of(tuples []tuple.Tuple) Sum {
	h := sha256.New()
	var buf []byte
	for _, t := range tuples {
		buf = tuple.AppendCanonical(buf[:0], t)
		h.Write(buf)
	}
	var s Sum
	h.Sum(s[:0])
	return s
}

// OfLines computes the one-shot digest of a stream of already-encoded
// records, one per line with a newline separator so record boundaries
// stay part of the digested bytes. The engine's audit digests (task
// outputs and storage-boundary streams for quiz/deferred verification)
// are built on it.
func OfLines(lines []string) Sum {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	var s Sum
	h.Sum(s[:0])
	return s
}
