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

// Audit digest points. Plan vertex IDs are non-negative, so negative
// Point values give audit digests a namespace disjoint from every
// verification point the compiler can instrument. The Task field carries
// the job's base ID (the spec ID after the last '/') so streams from
// different jobs of one sub-graph never collide even when their task IDs
// ("m0-000", "r000") do.
const (
	// AuditTaskPoint digests a task's full output (shuffle partitions or
	// final lines); Task is "<job>/<task>". Quiz verification compares a
	// re-executed task's digests — these plus the task's in-chain
	// verification-point digests — against the primary's.
	AuditTaskPoint = -1
	// AuditIOOutPoint digests a job's output as its tasks sealed and
	// stored it, read back once the job completes; Task is "<job>".
	AuditIOOutPoint = -2
	// AuditIOInPoint digests an input exactly as read back from storage;
	// Task is "<job>/in<i>". A mismatch against the producer's
	// AuditIOOutPoint digest convicts the storage boundary (write or
	// read tampering) without a second replica.
	AuditIOInPoint = -3
	// CkptPoint digests a checkpoint-eligible job's output as stored
	// (same bytes as AuditIOOutPoint but emitted on the full-r path);
	// Task is "<job>". The controller persists a replica's output only
	// once f+1 replicas agree on this digest, so a checkpoint can never
	// contain bytes that verification would reject.
	CkptPoint = -4
)

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

	// Obs, when set, counts every record folded into the stream, as each
	// chunk ends. Nil (the default) is free: the alloc tests pin Add at
	// zero allocations with and without a counter.
	Obs *obs.Counter

	// also lists further verification points this writer reports under.
	also []int

	hs      Hasher
	inChunk int64
	chunk   int
	closed  bool
}

// NewWriter returns a Writer that digests the stream for one verification
// point of one task. every is the paper's d parameter: a digest is
// emitted after each `every` records (and a final one at Close); every <=
// 0 disables chunking so only the final digest is produced. emit must be
// non-nil. The writer gathers records in a buffer of BufferSize bytes of
// its own, made when the first arrives, unless SetBuffer hands it one.
func NewWriter(key Key, replica, every int, emit func(Report)) *Writer {
	return &Writer{
		key:     key,
		replica: replica,
		every:   every,
		emit:    emit,
		hs:      Hasher{h: sha256.New()},
	}
}

// SetBuffer makes w gather its records in buf's array, from its start up
// to its capacity, instead of one of its own: a task's writers take theirs
// from the worker slot that runs it, which hands them to the next task
// once these are closed. Call it before the first record.
func (w *Writer) SetBuffer(buf []byte) { w.hs.buf = buf[:0] }

// Also makes w report every chunk under verification point p as well,
// right after its own: two points that see the same records in the same
// order with the same chunking hash the same bytes, so one hash state
// serves both and their reports come out as two writers would have
// emitted them. Each record still counts once per point in Obs.
func (w *Writer) Also(p int) { w.also = append(w.also, p) }

// Points returns how many verification points w reports under.
func (w *Writer) Points() int { return 1 + len(w.also) }

// Add folds one tuple's canonical bytes into the current chunk, emitting
// a Report when the chunk fills. The tuple is encoded straight into the
// writer's buffer.
func (w *Writer) Add(t tuple.Tuple) {
	if w.closed {
		return
	}
	hs := &w.hs
	hs.ready()
	room := cap(hs.buf)
	hs.buf = tuple.AppendCanonical(hs.buf, t)
	if len(hs.buf) >= room { // full, or grown past its array, which it keeps
		hs.drain()
	}
	w.added()
}

// AddCanonical is Add for a record the caller has already encoded: canon
// must be tuple.AppendCanonical's bytes for exactly one tuple. A task
// whose operator chain digests the same tuple at several points encodes
// it once and hands every writer the same bytes.
func (w *Writer) AddCanonical(canon []byte) {
	if w.closed {
		return
	}
	w.hs.Write(canon)
	w.added()
}

// Lines is a run of records whose canonical bytes a Writer can take
// straight into its buffer, a buffer at a time (AddLines). A map task's
// *dfs.Batch is one, over the rows of a block range held as spans: the
// task passes it as it is, since an adapter around it would escape to the
// heap.
type Lines interface {
	// AppendLines appends to dst the canonical bytes of records from,
	// from+1, ..., at most max of them, stopping before a record that
	// would take dst past its capacity unless dst is empty: an empty dst
	// always takes one. It returns dst and how many records it took.
	AppendLines(dst []byte, from, max int) ([]byte, int)
}

// AddLines folds records [from, from+n) of src into the stream: the same
// bytes, chunks and reports as n calls of AddCanonical, one a record. src
// appends them into the writer's own buffer, as many at a time as it and
// the current chunk have room for, so a record is copied once and a
// chunk's records are counted with one add. A caller that folds only some
// of src's records folds each run of consecutive ones with one call.
func (w *Writer) AddLines(src Lines, from, n int) {
	if w.closed {
		return
	}
	hs := &w.hs
	hs.ready()
	for r, end := from, from+n; r < end; {
		k := end - r
		if w.every > 0 {
			k = min(k, w.every-int(w.inChunk))
		}
		room := cap(hs.buf)
		var took int
		hs.buf, took = src.AppendLines(hs.buf, r, k)
		if took < k || len(hs.buf) >= room { // the next record does not fit, or grown past its array, which it keeps
			hs.drain()
		}
		r += took
		w.inChunk += int64(took)
		if w.every > 0 && w.inChunk >= int64(w.every) {
			w.flush(false)
		}
	}
}

// added counts one record into the chunk, and ends the chunk if full.
func (w *Writer) added() {
	w.inChunk++
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

func (w *Writer) flush(final bool) {
	r := Report{
		Key:     Key{SID: w.key.SID, Point: w.key.Point, Task: w.key.Task, Chunk: w.chunk},
		Replica: w.replica,
		Final:   final,
		Records: w.inChunk,
	}
	r.Sum = w.hs.Sum()
	w.hs.h.Reset()
	w.Obs.Add(w.inChunk * int64(w.Points()))
	w.emit(r)
	for _, p := range w.also {
		r.Key.Point = p
		w.emit(r)
	}
	w.inChunk = 0
	w.chunk++
}

// BufferSize is what a Hasher, and a Writer, gathers of its stream before
// hashing it: a chunk of d = 100 short records is one hash Write, where a
// Write a record pays the hash's call and block bookkeeping each time.
const BufferSize = 4 << 10

// Hasher is SHA-256 over a stream fed a buffer at a time: what is written
// is gathered in the buffer, which is hashed when it is full and when the
// sum is taken. The sum is that of the bytes written, in order, however
// they were cut.
type Hasher struct {
	h   hash.Hash
	buf []byte
	sum Sum // what h.Sum appends to: a Sum of the caller's would escape to the heap
}

// NewHasher returns a Hasher that gathers in buf's array, from its start
// up to its capacity; a buf of no capacity is replaced by one of
// BufferSize.
func NewHasher(buf []byte) *Hasher {
	hs := &Hasher{h: sha256.New(), buf: buf[:0]}
	hs.ready()
	return hs
}

// ready gives the Hasher a buffer of its own if it has none.
func (hs *Hasher) ready() {
	if cap(hs.buf) == 0 {
		hs.buf = make([]byte, 0, BufferSize)
	}
}

// Write adds p to the stream. p is copied, never held or handed on.
func (hs *Hasher) Write(p []byte) { gather(hs, p) }

// WriteString is Write for a string.
func (hs *Hasher) WriteString(s string) { gather(hs, s) }

// gather is Write and WriteString: what does not fit the buffer's room
// fills it, and the buffer is hashed, until the rest fits.
func gather[T string | []byte](hs *Hasher, p T) {
	hs.ready()
	for len(p) > cap(hs.buf)-len(hs.buf) {
		n := cap(hs.buf) - len(hs.buf)
		hs.buf = append(hs.buf, p[:n]...)
		p = p[n:]
		hs.drain()
	}
	hs.buf = append(hs.buf, p...)
}

// WriteByte adds c to the stream. It never fails.
func (hs *Hasher) WriteByte(c byte) error {
	hs.ready()
	if len(hs.buf) == cap(hs.buf) {
		hs.drain()
	}
	hs.buf = append(hs.buf, c)
	return nil
}

// drain hashes what the buffer holds and empties it.
func (hs *Hasher) drain() {
	if len(hs.buf) > 0 {
		hs.h.Write(hs.buf)
		hs.buf = hs.buf[:0]
	}
}

// Sum returns the digest of the stream so far.
func (hs *Hasher) Sum() Sum {
	hs.drain()
	hs.h.Sum(hs.sum[:0])
	return hs.sum
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

// NewBuffer returns a Buffer with room for n reports: a map attempt knows
// before its first record how many its writers can emit at most, and
// sizes its buffer once instead of growing it.
func NewBuffer(n int) *Buffer { return &Buffer{reports: make([]Report, 0, n)} }

// Add records one report. It is the emit callback wired into the
// attempt's writers.
func (b *Buffer) Add(r Report) { b.reports = append(b.reports, r) }

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
