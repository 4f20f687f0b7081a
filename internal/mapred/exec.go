package mapred

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// interRec is one shuffled record, as places in the storage of the run
// that holds it (sortedRun): its key's canonical bytes, which partition, sort
// and group it, at text[key:key+keyLen]; the tuple it carries, width values
// at vals[array][off:]; and the join tag. It holds no pointer, so the
// collector never looks inside an array of them, however many replicas'
// map outcomes hold one. The key's values are not kept beside it: an
// aggregate reads them from the tuple, through the input's KeyCols or, in
// a combined partial, as the prefix ahead of the partial state
// (mapOutcome.keyVals). Only what follows that prefix is the record's
// payload, which encLen measures.
type interRec struct {
	key, keyLen int32
	array       int32
	off         uint16 // an array holds at most valArrayLen values, or one wider tuple at 0
	tag         int16
	width       int32
	encLen      int32 // len(AppendEncoded(nil, payload)), fixed at record creation
}

// bytes estimates the serialized size of the record for local-I/O
// accounting (key + payload + framing).
func (r *interRec) bytes() int64 {
	return int64(r.keyLen) + int64(r.encLen) + 2
}

// sortedRun is one map task's records for one reduce partition, sorted,
// and the storage they index: the text of every key of the task's outcome,
// back to back, and the outcome's value arrays. The runs of one outcome
// share both.
type sortedRun struct {
	recs []interRec
	text string
	vals [][]tuple.Value
}

// key returns the canonical key bytes of r, one of the run's records.
func (p *sortedRun) key(r *interRec) string { return p.text[r.key : r.key+r.keyLen] }

// tuple returns the tuple r, one of the run's records, carries. It is the
// outcome's: the caller only reads it.
func (p *sortedRun) tuple(r *interRec) tuple.Tuple { return tupleAt(p.vals, r) }

// tupleAt returns the tuple of r in arrays, a map outcome's value arrays.
func tupleAt(arrays [][]tuple.Value, r *interRec) tuple.Tuple {
	end := int(r.off) + int(r.width)
	return arrays[r.array][r.off:end:end]
}

// bytes is the run's local-I/O size: its records' bytes.
func (p *sortedRun) bytes() int64 {
	var n int64
	for i := range p.recs {
		n += p.recs[i].bytes()
	}
	return n
}

// recAt is a record of a run, as the merge hands it on.
type recAt struct {
	run *sortedRun
	rec *interRec
}

func (a recAt) key() string        { return a.run.key(a.rec) }
func (a recAt) tuple() tuple.Tuple { return a.run.tuple(a.rec) }

// valArrayLen is the most values an array of valArrays holds: 32 KiB of
// them, the largest malloc size class, as tuple.Slab's arrays.
const valArrayLen = 1024

// valArrays holds the tuples of a map outcome. It carves them from arrays
// as tuple.Slab does, which double from the first tuple's width up to
// valArrayLen and are never copied or reused, and says where each lies.
// The list of them is the slot's while the task runs (taskScratch.arrays).
type valArrays struct {
	arrays [][]tuple.Value
	used   int // values handed out of the last array
}

// alloc carves a null-filled n-value tuple and returns it and its place.
func (v *valArrays) alloc(n int) (t tuple.Tuple, array int32, off uint16) {
	last := len(v.arrays) - 1
	if last < 0 || n > len(v.arrays[last])-v.used {
		size := n
		if last >= 0 {
			size = max(n, min(2*len(v.arrays[last]), valArrayLen))
		}
		v.arrays = append(v.arrays, make([]tuple.Value, size))
		last++
		v.used = 0
	}
	at := v.used
	v.used += n
	return v.arrays[last][at:v.used:v.used], int32(last), uint16(at)
}

// digestFactory builds the digest writer for one verification point of
// the running task; nil disables digests.
type digestFactory func(point int) *digest.Writer

// opChain executes a physical operator chain over a tuple stream,
// feeding PhysDigest points into their writers.
type opChain struct {
	ops     []Op
	state   []opState // parallel to ops
	digests int64     // records folded into digest writers
	// canon holds the canonical bytes of the tuple in flight while
	// canonOK: every digest and sample between two projections, and the
	// output line after the last, share one encode.
	canon   []byte
	canonOK bool
	// fromSrc holds while the tuple in flight is the record src stands on,
	// coerced by schema and untouched by a projection: the caller of apply
	// sets it, a projection clears it, and the record's canonical bytes are
	// put together from the batch's spans meanwhile, by plans.
	src     *dfs.Batch
	schema  *tuple.Schema
	fromSrc bool
	plans   []colPlan // per column of src's batch, how it is read (planBatch)
	// runW is the writer of a map chain's first digest where it may hash
	// the rows that reach it from src's batch (batchDigest); while the batch
	// allows it (runs), rows [runLo, runHi) are pending (flushRun).
	runW         *digest.Writer
	runs         bool
	runLo, runHi int
}

// colPlan is how the map side reads a column of a batch: decided once a
// batch, from the column's declared type and what the batch knows of its
// values (dfs.Batch.Form), instead of from each value.
type colPlan uint8

const (
	// planValue coerces and encodes each value by its type
	// (FieldType.Coerce, AppendCoerced).
	planValue colPlan = iota
	// planInt: each value is a canonical integer, coerced by summing its
	// digits (tuple.CanonicalInt), and its span is its encoding.
	planInt
	// planStr: each value is the string it is, and its span its encoding.
	planStr
)

// planBatch decides the plan of every column of src, the batch just read.
// Where every value of a column is a canonical integer (tuple.IntCanon), a
// column typed int or untyped reads each as its digits; where none looks
// like an integer (tuple.IntNone), an untyped column reads each as a
// string, as a chararray column always does. Columns past the plans, and a
// batch of held lines but for its chararray columns, take planValue.
func (c *opChain) planBatch() {
	n := c.src.Columns()
	if c.schema != nil {
		n = max(n, c.schema.Len())
	}
	c.plans = resize(c.plans, n)
	for col := range c.plans {
		ft, form := c.schema.ColType(col), c.src.Form(col)
		switch {
		case ft == tuple.TypeString, ft == tuple.TypeAny && form == tuple.IntNone:
			c.plans[col] = planStr
		case (ft == tuple.TypeAny || ft == tuple.TypeInt) && form == tuple.IntCanon:
			c.plans[col] = planInt
		default:
			c.plans[col] = planValue
		}
	}
}

// plan returns column col's plan.
func (c *opChain) plan(col int) colPlan {
	if col < len(c.plans) {
		return c.plans[col]
	}
	return planValue
}

// coerce returns the value column col of src's current record holds.
func (c *opChain) coerce(col int) tuple.Value {
	v := c.src.Value(col)
	switch c.plan(col) {
	case planInt:
		return tuple.Int(tuple.CanonicalInt(v))
	case planStr:
		return tuple.Str(v)
	}
	return c.schema.ColType(col).Coerce(v)
}

// appendSpan appends the encoding of column col of src's current record,
// a plain one: its span, where the plan says it is that, or what
// FieldType.AppendCoerced's rule makes of it.
func (c *opChain) appendSpan(dst []byte, col int) []byte {
	v := c.src.Value(col)
	if c.plan(col) != planValue {
		return append(dst, v...)
	}
	return c.schema.ColType(col).AppendCoerced(dst, v)
}

// opState is what one op of a running chain keeps between records.
type opState struct {
	// PhysDigest: nil when digests are off, and in a digest fused into the
	// one before it (digest.Writer.Also).
	w      *digest.Writer
	passed int64       // PhysLimit: records let through so far
	out    tuple.Tuple // PhysProject: the reused output
}

// newOpChain builds the chain for one task, on the scratch of the slot it
// runs on: its writers gather their records in the slot's digest buffers,
// one each (taskScratch.hashBuf). Each PhysProject writes every record into
// one buffer of its own: the caller must be done with a tuple apply
// returned before it calls apply again.
func newOpChain(ops []Op, df digestFactory, sc *taskScratch) opChain {
	c := opChain{ops: ops, state: make([]opState, len(ops)), canon: sc.canon, plans: sc.plans}
	writers := 0
	for i, op := range ops {
		switch {
		case op.Kind == PhysDigest && df != nil:
			// Digests with nothing between them see one stream: the first
			// hashes it for all of them.
			first := i
			for first > 0 && ops[first-1].Kind == PhysDigest {
				first--
			}
			if first == i {
				c.state[i].w = df(op.Point)
				c.state[i].w.SetBuffer(sc.hashBuf(writers))
				writers++
			} else {
				c.state[first].w.Also(op.Point)
			}
		case op.Kind == PhysProject:
			c.state[i].out = make(tuple.Tuple, len(op.Gens))
		}
	}
	return c
}

// batchDigest sets runW for a map chain that takes its records from src
// and, when keyed, hands them on as keys: the first PhysDigest, behind
// nothing but filters, may hash the source records that reach it from the
// batch, a run of consecutive rows at a time, if its writer is the chain's
// only one and nothing after it reads the unprojected record's bytes — no
// sample before the first projection, and no output line where there is
// none, each of which would encode again the bytes the digest no longer
// leaves behind. A second writer would see each record before the first
// had hashed its run, and so move its reports ahead of the first's.
func (c *opChain) batchDigest(keyed bool) {
	c.runW = nil
	first := slices.IndexFunc(c.ops, func(op Op) bool { return op.Kind != PhysFilter })
	if first < 0 || c.ops[first].Kind != PhysDigest || c.state[first].w == nil {
		return
	}
	projected := false
	for i := first + 1; i < len(c.ops); i++ {
		switch {
		case c.state[i].w != nil, c.ops[i].Kind == PhysSample && !projected:
			return
		case c.ops[i].Kind == PhysProject:
			projected = true
		}
	}
	if projected || keyed {
		c.runW = c.state[first].w
	}
}

// digestBatch decides whether runW takes the rows of src's batch, just
// read, from the block's spans (dfs.Batch.AppendLines): where the batch is
// an honest task's range held as spans, every record holding every column,
// each column's plan its span. With no filter ahead a batch is one run.
func (c *opChain) digestBatch(honest bool) {
	c.runs = false
	if c.runW == nil || !honest || c.src.Rows() == 0 {
		return
	}
	for col := range c.src.Columns() {
		if c.plan(col) == planValue {
			return
		}
	}
	c.runs = true
}

// addRow adds the row src stands on, which reached runW, to the pending
// run, hashing the run first where the row does not extend it.
func (c *opChain) addRow() {
	if row := c.src.Row(); row != c.runHi {
		c.flushRun(row)
	}
	c.runHi++
}

// flushRun hashes the pending run into runW and leaves an empty one at
// next: as a row breaks the run, and once the batch's last row is done.
func (c *opChain) flushRun(next int) {
	if n := c.runHi - c.runLo; n > 0 {
		c.runW.AddLines(c.src, c.runLo, n)
		c.digests += int64(n * c.runW.Points())
	}
	c.runLo, c.runHi = next, next
}

// apply runs one tuple through the chain; ok is false when the tuple was
// dropped (filter miss or limit exhausted). t is only read.
func (c *opChain) apply(t tuple.Tuple) (tuple.Tuple, bool) {
	c.canonOK = false
	for i := range c.ops {
		op, st := &c.ops[i], &c.state[i]
		switch op.Kind {
		case PhysFilter:
			if !op.Pred.Eval(t).Truthy() {
				return nil, false
			}
		case PhysProject:
			out := st.out
			for g, gen := range op.Gens {
				out[g] = gen.Expr.Eval(t)
			}
			t = out
			c.canonOK, c.fromSrc = false, false
		case PhysDigest:
			switch {
			case st.w == nil:
			case c.runs:
				c.addRow() // st.w is runW, the chain's only writer
			default:
				st.w.AddCanonical(c.canonical(t))
				c.digests += int64(st.w.Points())
			}
		case PhysLimit:
			if st.passed >= op.Limit {
				return nil, false
			}
			st.passed++
		case PhysSample:
			if !sampleKeepHash(c.canonical(t), op.Fraction) {
				return nil, false
			}
		}
	}
	return t, true
}

// canonical returns tuple.AppendCanonical of t, the tuple in flight,
// encoding it only if no earlier op of this apply already has.
func (c *opChain) canonical(t tuple.Tuple) []byte {
	if c.canonOK {
		return c.canon
	}
	c.canonOK = true
	if !c.fromSrc {
		c.canon = tuple.AppendCanonical(c.canon[:0], t)
		return c.canon
	}
	// t is the source record as coerced, column by column, from the spans:
	// appendSpan writes what encoding t's values would, whether or not t
	// holds them, and copies the span wherever that is the same bytes. Its
	// copy is written out here, where every column of every record of a
	// source digest passes, so that a column read by its plan costs no
	// call.
	buf := c.canon[:0]
	for i, w := 0, c.src.Width(); i < w; i++ {
		if i > 0 {
			buf = append(buf, '\t')
		}
		if c.plan(i) != planValue {
			buf = append(buf, c.src.Value(i)...)
		} else {
			buf = c.appendSpan(buf, i)
		}
	}
	c.canon = append(buf, '\n')
	return c.canon
}

// appendKey appends to dst the shuffle key of t, the tuple apply just
// returned: the encoding of its cols, null past its width. While t is
// still the source record, each is copied from its span (appendSpan),
// else encoded from t's values (tuple.AppendColumns).
func (c *opChain) appendKey(dst []byte, t tuple.Tuple, cols []int) []byte {
	if !c.fromSrc {
		return tuple.AppendColumns(dst, t, cols)
	}
	for i, col := range cols {
		if i > 0 {
			dst = append(dst, '\t')
		}
		if col < len(t) { // one past t's width is a null: no bytes
			dst = c.appendSpan(dst, col)
		}
	}
	return dst
}

// line returns tuple.AppendEncoded of t, the tuple apply just returned:
// its canonical bytes less the trailing newline. Valid until the next
// apply.
func (c *opChain) line(t tuple.Tuple) []byte {
	b := c.canonical(t)
	return b[:len(b)-1]
}

// close finalizes all digest writers in the chain.
func (c *opChain) close() {
	for _, st := range c.state {
		if st.w != nil {
			st.w.Close()
		}
	}
}

// FNV-1a parameters, inlined so the hot path hashes without the
// heap-allocated hash.Hash of hash/fnv. The loops below fold bytes
// exactly as fnv.New64a/New32a do (xor then multiply), so every hash
// value — and with it sampling subsets and shuffle placement — is
// unchanged.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// sampleKeepHash deterministically selects a fraction of tuples by
// hashing their canonical bytes (canon, which callers on the per-record
// path encode into one reused scratch buffer), so every replica samples
// the same subset and digests stay comparable (§5.4 determinism
// requirement). fraction is clamped to [0, 1]: it is client input, and
// converting a negative float to uint64 yields a platform-dependent value
// in Go (the spec leaves out-of-range float→integer conversions
// implementation-defined) rather than the "keep nothing" a negative
// fraction means.
func sampleKeepHash(canon []byte, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := uint64(fnvOffset64)
	for _, b := range canon {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	const buckets = 1 << 20
	return h%buckets < uint64(fraction*buckets)
}

// partitionOf hash-partitions a shuffle key (inline FNV-1a over its
// bytes).
func partitionOf(key []byte, numReduces int) int {
	if numReduces <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(numReduces))
}

// strArena hands out strings as substrings of a few large chunks, one
// allocation per chunk instead of one per string. A chunk is freed when
// the last string cut from it is.
type strArena struct {
	b    strings.Builder
	size int // capacity of the current chunk, to size the next one
}

// Chunks double from the first up to the largest malloc size class, so
// the slack a short-lived arena leaves is bounded by what it holds.
const (
	arenaChunkMin = 1 << 10
	arenaChunkMax = 32 << 10
)

// add copies p into the arena and returns it as a string.
func (a *strArena) add(p []byte) string {
	start := a.room(len(p))
	a.b.Write(p)
	return a.b.String()[start:]
}

// addString is add for a string.
func (a *strArena) addString(s string) string {
	start := a.room(len(s))
	a.b.WriteString(s)
	return a.b.String()[start:]
}

// cat is add for s+suffix.
func (a *strArena) cat(s, suffix string) string {
	start := a.room(len(s) + len(suffix))
	a.b.WriteString(s)
	a.b.WriteString(suffix)
	return a.b.String()[start:]
}

// room makes sure the current chunk has n bytes left, starting a new one
// if not, and returns where in it the next string will begin.
func (a *strArena) room(n int) int {
	if a.b.Cap()-a.b.Len() < n {
		a.size = max(n, min(2*a.size, arenaChunkMax), arenaChunkMin)
		a.b.Reset() // strings already handed out keep the old chunk
		a.b.Grow(a.size)
	}
	return a.b.Len()
}

// taskObs carries optional observability counters into task bodies.
// The zero value disables everything: nil counters no-op, so honest hot
// paths pay a predictable nil check and zero allocations either way
// (pinned by the alloc tests).
type taskObs struct {
	mapRecords     *obs.Counter // records read by map tasks
	reduceRecords  *obs.Counter // records entering reduce tasks
	shuffleRecords *obs.Counter // records written into shuffle partitions
	combineRecords *obs.Counter // records folded into map-side combiners
	mergedRuns     *obs.Counter // sorted runs consumed by reduce merges
	outRecords     *obs.Counter // records emitted to task output
}

// mapOutcome carries the effects of one executed map task. For shuffle
// jobs each partition is a sorted run (sortRuns order); reduce attempts
// merge the runs read-only, so outcomes may be shared by backups.
type mapOutcome struct {
	partitions  []sortedRun // shuffle jobs: per-reduce-partition sorted runs
	keyVals     int         // key values ahead of the payload in each record's tuple
	taskOutput              // map-only jobs: final output records
	inBytes     int64       // input read, as lines with a newline each
	recordsIn   int64
	recordsOut  int64 // records surviving the operator chain
	shuffleRecs int64 // records written into shuffle partitions
	combinedIn  int64 // records folded into the combiner (0 when off)
	digested    int64
	localBytes  int64 // shuffle bytes written
}

// taskOutput is what a map-only or reduce task writes to its part file:
// the blocks the body sealed from the lines runMapTask or runReduceTask
// left in its slot's scratch (taskScratch.out), for the commit to install.
type taskOutput struct {
	sealed dfs.Sealed
}

// publish ends the output a task left in sc: with fs set, its lines are
// sealed for the commit to install; with fs nil (a quiz, whose commit is
// dropped, or a shuffle, whose output is its partitions) nothing of them
// is. Nothing sealed points into sc, whose buffer the next task writes over.
func (o *taskOutput) publish(sc *taskScratch, fs *dfs.FS) {
	if fs != nil {
		o.sealed = fs.SealBuffer(sc.out.buf, sc.out.ends)
	}
	sc.out.reset()
}

// lineBuf is a task's output lines, their bytes back to back in buf and
// line i ending at ends[i]: two arrays the collector has nothing to trace
// in, reused by every task of a slot.
type lineBuf struct {
	buf  []byte
	ends []int32
}

// lineBufMin is what a lineBuf's arrays first grow to, bytes and lines: a
// slot's first task skips the smallest steps of doubling.
const lineBufMin = 4 << 10

// add appends one line.
func (b *lineBuf) add(line []byte) {
	if cap(b.buf)-len(b.buf) < len(line) {
		b.buf = slices.Grow(b.buf, max(len(line), len(b.buf), lineBufMin))
	}
	b.buf = append(b.buf, line...)
	if len(b.buf) > math.MaxInt32 {
		panic("mapred: a task's output passed 2 GiB")
	}
	if len(b.ends) == cap(b.ends) {
		b.ends = slices.Grow(b.ends, max(len(b.ends), lineBufMin))
	}
	b.ends = append(b.ends, int32(len(b.buf)))
}

// lines is the number of lines held.
func (b *lineBuf) lines() int { return len(b.ends) }

// line returns line i, in the buffer: valid until the next reset.
func (b *lineBuf) line(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.buf[start:b.ends[i]]
}

// reset empties b, keeping its arrays.
func (b *lineBuf) reset() { b.buf, b.ends = b.buf[:0], b.ends[:0] }

// tamper replaces the lines held with what f returns for them.
func (b *lineBuf) tamper(f func(lines []string) []string) {
	lines := make([]string, b.lines())
	for i := range lines {
		lines[i] = string(b.line(i))
	}
	b.reset()
	for _, l := range f(lines) {
		b.add([]byte(l))
	}
}

// hash writes every line held, and a newline after each, to hs.
func (b *lineBuf) hash(hs *digest.Hasher) {
	for i := range b.lines() {
		hs.Write(b.line(i))
		hs.WriteByte('\n')
	}
}

// corruptFn is TaskFault.Corrupt's type; nil for honest execution.
type corruptFn func(v tuple.Value, cat func(s, suffix string) string) tuple.Value

// taskScratch is what a worker slot keeps from one task body to the next:
// the arrays a task grows and is done with when it returns, one body's at
// a time because the slot is (Engine.borrow). It carries capacity, never
// content: a task leaves every string, tuple and run slot of it zero, so
// nothing of its split or its outcome is held for, or seen by, the next,
// and no outcome points into it. Its pointer-free arrays (keys, records,
// output) are left as they are: the next task writes over what it reads.
type taskScratch struct {
	batch  dfs.Batch        // map: the chain's source batch, its shape arrays, offsets and unescape buffer
	row    tuple.Tuple      // the reused source row; the aggregate's output row
	text   []byte           // map: every key of the task, back to back, until finish copies them out
	arrays [][]tuple.Value  // map: the outcome's value arrays, until finish copies out the list of them
	recs   []interRec       // map: the shuffle's records in arrival order, or the combiner's in entry order
	parts  []int32          // map: the partition of each of them
	canon  []byte           // the chain's canonical bytes
	plans  []colPlan        // map: the chain's plan of each column of the batch
	hashes [][]byte         // digest buffers, one a writer of the chain (hashBuf)
	table  combineTable     // map: the combiner's table, emptied by emit
	aggs   []*pig.Aggregate // map: the combiner's aggregates
	idx    []int32          // map: the sorts' permutation
	pairs  []sortPair       // map: sortKeyed's radix pairs, two a record
	live   []sortedRun      // reduce: the runs being merged
	tree   []uint64         // reduce: their head words and loser tree
	left   []tuple.Tuple    // reduce: a join key's left side
	right  []tuple.Tuple    // reduce: its right side
	joined tuple.Tuple      // reduce: a pair of them
	accs   []aggAcc         // reduce: one group's aggregates
	key    tuple.Tuple      // reduce: an uncombined group's key
	out    lineBuf          // output lines as emitted, until the body publishes them (taskOutput)
}

// hashBuf returns digest buffer i of the slot, made the first time a task
// asks for it: a chain hands one to each of its writers, an audit sum
// takes the first once they are closed.
func (sc *taskScratch) hashBuf(i int) []byte {
	for len(sc.hashes) <= i {
		sc.hashes = append(sc.hashes, make([]byte, 0, digest.BufferSize))
	}
	return sc.hashes[i]
}

// resize returns s with n elements, in a new array only if s lacks the room.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// wipe zeroes s through its capacity and returns it empty.
func wipe[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// neededCols derives from the spec which columns of an input the map
// side reads (DESIGN.md §6): eval lists the columns its expressions, keys
// and aggregates evaluate, carry those whose bytes it needs at all; nil
// means all. A column may stay unevaluated only if nothing consumes the
// input tuple whole, which every job shape does that ships the unprojected
// tuple on — all but the combining aggregate, whose combiner reads key and
// aggregate columns only. Audited inputs, and expressions of unknown type
// or reaching past the schema, evaluate in full. A digest or sample ahead
// of the first projection reads the whole record, but only its bytes:
// carry is then nil and eval unchanged. The batch carries carry; a record
// the chain must encode again from its tuple (one holding an escape byte,
// or any of a corrupting task) coerces carry rather than eval.
func neededCols(job *JobSpec, inputIdx int) (eval, carry []bool) {
	in := &job.Inputs[inputIdx]
	if in.AuditIn || in.Schema == nil {
		return nil, nil
	}
	need := make([]bool, in.Schema.Len())
	width, ok := 0, true // width is 1 + the highest column read
	read := func(c int) {
		if c < 0 || c >= len(need) {
			ok = false
			return
		}
		need[c] = true
		width = max(width, c+1)
	}
	ops := in.Ops
	if p := slices.IndexFunc(ops, func(op Op) bool { return op.Kind == PhysProject }); p >= 0 {
		ops = ops[:p+1]
	} else if r := job.Reduce; r != nil && r.Kind == ReduceAggregate && r.Combine && in.KeyCols != nil {
		for _, c := range in.KeyCols {
			read(c)
		}
		for _, gen := range r.Gens {
			if gen.Agg != nil && gen.Agg.ColIdx >= 0 { // COUNT(bag) reads no column
				read(gen.Agg.ColIdx)
			}
		}
	} else {
		return nil, nil
	}
	whole := false
	for _, op := range ops {
		switch op.Kind {
		case PhysDigest, PhysSample:
			whole = true
		case PhysFilter:
			ok = pig.Columns(op.Pred, read) && ok
		case PhysProject:
			for _, gen := range op.Gens {
				ok = gen.Expr != nil && pig.Columns(gen.Expr, read) && ok
			}
		}
	}
	if !ok {
		return nil, nil
	}
	if whole {
		return need[:width], nil
	}
	return need[:width], need[:width]
}

// mapRun is the state of one running map task past its reader: what each
// record goes through once it is a tuple.
type mapRun struct {
	job     *JobSpec
	in      *JobInput
	out     *mapOutcome
	chain   opChain
	comb    combiner
	combine bool // records go through comb
	corrupt corruptFn
	o       taskObs
	sc      *taskScratch
	// The tuples the shuffle keeps live in the outcome's value arrays: the
	// chain's, and the row, are copied there, so every projection reuses its
	// buffer and every record the row.
	vals valArrays
	// cat cuts a corrupting task's strings from an arena of their own: the
	// next record is done with them, and the outcome is not to hold them.
	cat func(s, suffix string) string
}

// newMapRun sets up a map task of n records over input inputIdx of job, on
// the scratch of the slot it runs on, whose arrays it grows at once to what
// the task may need of them. Its chain's digests are the caller's to close.
func newMapRun(job *JobSpec, inputIdx, n int, df digestFactory, corrupt corruptFn, o taskObs, sc *taskScratch) mapRun {
	in := &job.Inputs[inputIdx]
	m := mapRun{job: job, in: in, out: &mapOutcome{}, corrupt: corrupt, o: o, sc: sc}
	m.vals.arrays = sc.arrays
	switch {
	case in.KeyCols == nil:
		sc.out.ends = slices.Grow(sc.out.ends, n)
	case job.Reduce != nil && job.Reduce.Combine:
		m.combine = true
		m.comb = newCombiner(job.Reduce, in, job.NumReduces, sc.table, sc.aggs)
		sc.text = slices.Grow(sc.text[:0], lineBufMin)
	default:
		sc.text = slices.Grow(sc.text[:0], lineBufMin)
		sc.recs, sc.parts = slices.Grow(sc.recs[:0], n), slices.Grow(sc.parts[:0], n)
	}
	m.chain = newOpChain(in.Ops, df, sc)
	m.chain.src, m.chain.schema = &sc.batch, in.Schema
	m.chain.batchDigest(in.KeyCols != nil)
	if corrupt != nil {
		m.cat = new(strArena).cat
	}
	return m
}

// record runs one source tuple through the chain and on to the combiner,
// the shuffle or the output. t is this record's alone: a corrupting task
// tampers with it in place.
func (m *mapRun) record(t tuple.Tuple) {
	in, out, sc := m.in, m.out, m.sc
	out.recordsIn++
	m.o.mapRecords.Inc()
	if m.corrupt != nil {
		for i, v := range t {
			t[i] = m.corrupt(v, m.cat)
		}
	}
	t, ok := m.chain.apply(t)
	if !ok {
		return
	}
	out.recordsOut++
	switch {
	case m.combine:
		// Digests fired inside the chain above; combining only
		// reshapes what crosses the shuffle.
		sc.text = m.comb.fold(t, &m.chain, sc.text, &m.vals)
	case in.KeyCols != nil:
		key := len(sc.text)
		sc.text = m.chain.appendKey(sc.text, t, in.KeyCols)
		kept, array, off := m.vals.alloc(len(t))
		copy(kept, t)
		rec := interRec{key: int32(key), keyLen: int32(len(sc.text) - key), array: array, off: off,
			tag: int16(in.Tag), width: int32(len(t)), encLen: int32(tuple.EncodedLen(t))}
		sc.recs = append(sc.recs, rec)
		sc.parts = append(sc.parts, int32(partitionOf(sc.text[key:], m.job.NumReduces)))
		out.localBytes += rec.bytes()
	default:
		sc.out.add(m.chain.line(t))
	}
}

// finish ends the task once every record went through record: it emits
// the combiner or lays out the shuffle's partitions, sorts them and counts
// the outcome, and hands the scratch back empty but for the output lines.
func (m *mapRun) finish() *mapOutcome {
	out, sc, o := m.out, m.sc, m.o
	shuffle := m.in.KeyCols != nil
	out.digested = m.chain.digests
	if m.combine {
		out.combinedIn = out.recordsOut
		out.partitions, out.localBytes = m.comb.emit(sc.text, &m.vals, sc)
		out.keyVals = m.comb.keyVals
		sc.table, sc.aggs = m.comb.table, wipe(m.comb.aggs)
	} else if shuffle {
		out.partitions = scatter(sc.recs, sc.parts, m.job.NumReduces, sc)
	}
	if shuffle {
		// Every run indexes the one copy of the task's keys and of the list
		// of its value arrays, each exactly sized.
		text, vals := m.outcomeText(), slices.Clone(m.vals.arrays)
		for p := range out.partitions {
			part := &out.partitions[p]
			part.text, part.vals = text, vals
			out.shuffleRecs += int64(len(part.recs))
		}
		sortRuns(out.partitions, m.job.Reduce, sc)
		o.shuffleRecords.Add(out.shuffleRecs)
		o.combineRecords.Add(out.combinedIn)
	} else {
		o.outRecords.Add(out.recordsOut)
	}
	// The row held values of the split's text; the batch let go of its own.
	sc.row, sc.arrays, sc.canon, sc.plans = wipe(sc.row), wipe(m.vals.arrays), m.chain.canon, m.chain.plans
	return out
}

// outcomeText copies the task's key text out as the outcome's. A
// combiner's keys are cut from the arena its entries' strings are, where
// that has room. The few survivors of a selective uncombined chain would
// each pin their split's text for the life of the outcome: their strings
// are copied in behind the keys, and cut from the copy.
func (m *mapRun) outcomeText() string {
	sc := m.sc
	if m.combine {
		return m.comb.strs.add(sc.text)
	}
	if 2*m.out.recordsOut > m.out.recordsIn {
		return string(sc.text)
	}
	at := len(sc.text)
	for i := range sc.recs {
		for _, v := range tupleAt(m.vals.arrays, &sc.recs[i]) {
			if v.Kind() == tuple.KindString {
				sc.text = append(sc.text, v.Str()...)
			}
		}
	}
	text := string(sc.text)
	for i := range sc.recs {
		t := tupleAt(m.vals.arrays, &sc.recs[i])
		for c, v := range t {
			if v.Kind() == tuple.KindString {
				n := len(v.Str())
				t[c], at = tuple.Str(text[at:at+n]), at+n
			}
		}
	}
	return text
}

// scatter lays recs, held in arrival order with their partitions, out as
// the partitions' runs: one array for all of them, each run exactly its
// records' length, arrival order kept within each. Each partition's count,
// then its next place, is kept in sc's index.
func scatter(recs []interRec, parts []int32, numParts int, sc *taskScratch) []sortedRun {
	runs := make([]sortedRun, numParts)
	if len(recs) == 0 {
		return runs
	}
	at := resize(sc.idx, numParts)
	clear(at)
	for _, p := range parts {
		at[p]++
	}
	next := int32(0)
	for p, k := range at {
		at[p] = next
		next += k
	}
	laid := make([]interRec, len(recs))
	for i, p := range parts {
		laid[at[p]] = recs[i]
		at[p]++
	}
	start := int32(0)
	for p, end := range at {
		runs[p].recs = laid[start:end:end]
		start = end
	}
	sc.idx = at
	return runs
}

// runMapTask executes one map task over records [lo, hi) of its input,
// on the scratch of the slot it runs on. Every record reaches the chain
// through the slot's dfs.Batch (a sealed block's as column spans, held
// lines where they are) as a row of values coerced straight from it, the
// columns neededCols lists and no line rebuilt, each column by the plan
// the chain made of it for the batch (planBatch). Every record overwrites
// one row: what the shuffle keeps of it is copied into the outcome.
func runMapTask(job *JobSpec, inputIdx int, src *dfs.Reader, lo, hi int, df digestFactory, corrupt corruptFn, o taskObs, sc *taskScratch) *mapOutcome {
	m := newMapRun(job, inputIdx, hi-lo, df, corrupt, o, sc)
	defer m.chain.close()
	eval, carry := neededCols(job, inputIdx)
	batch := &sc.batch
	for lo < hi {
		lo = src.ReadColumns(batch, lo, hi, carry)
		m.out.inBytes += batch.LineBytes()
		m.chain.planBatch()
		m.chain.digestBatch(corrupt == nil)
		for batch.Next() {
			// A corrupting task's digests are of tuples no span holds. A
			// chain that reads the source reads no column of the tuple but
			// eval's; one that does not encodes the tuple, every carried column.
			m.chain.fromSrc = corrupt == nil && batch.Plain()
			coerce := eval
			if !m.chain.fromSrc {
				coerce = carry
			}
			w := batch.Width()
			if len(sc.row) < w {
				sc.row = resize(sc.row, w)
			}
			t := sc.row[:w]
			if corrupt != nil {
				clear(t) // what is not coerced is null to tamper with, not the last record's
			}
			for c := range t {
				if coerce == nil || c < len(coerce) && coerce[c] {
					t[c] = m.chain.coerce(c)
				}
			}
			m.record(t)
		}
		m.chain.flushRun(0)
	}
	batch.Release()
	return m.finish()
}

// reduceOutcome carries the effects of one executed reduce task.
type reduceOutcome struct {
	taskOutput
	recordsIn  int64
	recordsOut int64
	digested   int64
}

// runReduceTask executes one reduce task of job over its partition's
// sorted runs, one per map task in map-ordinal order — the engine's stand-in
// for the paper's §5.4 "order intermediate output by mapper id"
// determinism fix. The k-way merge visits records in (key, map ordinal,
// in-task position) order, which is exactly the (key, global arrival)
// order the previous reduce-side global sort produced, so every kind
// streams its groups off the merge with no reduce-side sort and no
// buffering beyond the current group. Runs are never mutated: backup
// attempts of the same task merge the same shared runs concurrently.
//
// emit is the only consumer of what a kind produces and of what the
// chain makes of it, and it encodes the result before it returns. So
// nothing here allocates per emitted record: the join's concatenation,
// the aggregate's row and the chain's projections are buffers written
// over by the next record, and output lines go into the slot's buffer.
func runReduceTask(job *JobSpec, runs []sortedRun, df digestFactory, o taskObs, sc *taskScratch) *reduceOutcome {
	spec := job.Reduce
	chain := newOpChain(spec.PostOps, df, sc)
	defer chain.close()
	out := &reduceOutcome{}
	var liveRuns int64
	for _, r := range runs {
		out.recordsIn += int64(len(r.recs))
		if len(r.recs) > 0 {
			liveRuns++
		}
	}
	o.reduceRecords.Add(out.recordsIn)
	o.mergedRuns.Add(liveRuns)
	emit := func(t tuple.Tuple) {
		if t, ok := chain.apply(t); ok {
			out.recordsOut++
			sc.out.add(chain.line(t))
		}
	}
	switch spec.Kind {
	case ReduceSort:
		var cmp func(a, b recAt) int
		if len(spec.OrderBy) > 0 {
			cmp = func(a, b recAt) int { return orderCmp(a.tuple(), b.tuple(), spec.OrderBy) }
		}
		mergeRuns(runs, false, cmp, func(r recAt) { emit(r.tuple()) }, sc)
	case ReduceDistinct:
		started := false
		var lastKey string
		mergeRuns(runs, true, nil, func(r recAt) {
			if started && r.key() == lastKey {
				return
			}
			started = true
			lastKey = r.key()
			emit(r.tuple()) // first arrival of each key, keys sorted
		}, sc)
	case ReduceAggregate:
		aggIdx := aggOrdinals(spec.Gens)
		// A GROUP's inputs share their key columns. A combined record carries
		// the key's values ahead of its partial state; an uncombined one is
		// the row, from which each group's first rebuilds them into sc.key.
		keyCols, keyVals := job.Inputs[0].KeyCols, 0
		if spec.Combine {
			keyVals = len(keyCols)
		}
		sc.accs, sc.row, sc.key = resize(sc.accs, len(aggIdx)), resize(sc.row, len(spec.Gens)), resize(sc.key, len(keyCols))
		accs, row := sc.accs, sc.row
		curKey := sc.key
		started := false
		var lastKey string
		flush := func() {
			ai := 0
			for i, gen := range spec.Gens {
				if gen.Agg == nil {
					row[i] = gen.Expr.Eval(curKey)
					continue
				}
				row[i] = finalizeAgg(gen.Agg, accs[ai])
				ai++
			}
			emit(row)
		}
		mergeRuns(runs, true, nil, func(r recAt) {
			t := r.tuple()
			if key := r.key(); !started || key != lastKey {
				if started {
					flush()
				}
				started = true
				lastKey = key
				if spec.Combine {
					curKey = t[:keyVals]
				} else {
					for i, c := range keyCols {
						curKey[i] = colOf(t, c)
					}
				}
				for i := range accs {
					accs[i] = aggAcc{}
				}
			}
			for j, gi := range aggIdx {
				agg := spec.Gens[gi].Agg
				if spec.Combine {
					n, v := partialAcc(t[keyVals:], j)
					mergeAgg(agg, &accs[j], n, v)
				} else {
					mergeAgg(agg, &accs[j], 1, colOf(t, agg.ColIdx))
				}
			}
		}, sc)
		if started {
			flush()
		}
	case ReduceJoin:
		left, right, joined := sc.left, sc.right, sc.joined // one key's two sides, and a pair of them
		started := false
		var lastKey string
		flush := func() {
			joined = joinKey(left, right, joined, emit)
			left, right = left[:0], right[:0]
		}
		mergeRuns(runs, true, nil, func(r recAt) {
			if key := r.key(); !started || key != lastKey {
				if started {
					flush()
				}
				started = true
				lastKey = key
			}
			// Merge order preserves arrival order within each side.
			if r.rec.tag == 0 {
				left = append(left, r.tuple())
			} else {
				right = append(right, r.tuple())
			}
		}, sc)
		if started {
			flush()
		}
		sc.left, sc.right, sc.joined = wipe(left), wipe(right), wipe(joined)
	}
	out.digested = chain.digests
	o.outRecords.Add(out.recordsOut)
	// Hand the scratch back empty but for the output lines: all of these
	// pointed into map outcomes.
	sc.live, sc.accs, sc.row, sc.key, sc.canon = wipe(sc.live), wipe(sc.accs), wipe(sc.row), wipe(sc.key), chain.canon
	return out
}

// joinKey emits every pair of one key's left and right records, left
// first, each written into pair, which it returns grown to the widest.
// A pair is written a value at a time: a pair is a few values, too few for
// a slice copy's call to pay. A key missing from either side pairs
// nothing, and no record of it is read.
func joinKey(left, right []tuple.Tuple, pair tuple.Tuple, emit func(tuple.Tuple)) tuple.Tuple {
	if len(left) == 0 || len(right) == 0 {
		return pair
	}
	wide := 0
	for _, rt := range right {
		wide = max(wide, len(rt))
	}
	for _, lt := range left {
		n := len(lt)
		pair = resize(pair, n+wide)
		for i, v := range lt {
			pair[i] = v
		}
		for _, rt := range right {
			p := pair[:n+len(rt)]
			dst := p[n:]
			for i := range rt {
				dst[i] = rt[i]
			}
			emit(p)
		}
	}
	return pair
}

// orderCmp compares two tuples under an ORDER BY key list, three-way.
func orderCmp(a, b tuple.Tuple, keys []pig.OrderKey) int {
	for _, k := range keys {
		var av, bv tuple.Value
		if k.Col < len(a) {
			av = a[k.Col]
		}
		if k.Col < len(b) {
			bv = b[k.Col]
		}
		c := tuple.Compare(av, bv)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

func colOf(t tuple.Tuple, idx int) tuple.Value {
	if idx >= 0 && idx < len(t) {
		return t[idx]
	}
	return tuple.Null()
}

// auditMapSum digests a map task's full output for digest.AuditTaskPoint: the
// shuffle partitions in partition order (key, separator, payload per
// record; a combined partial's key values are its key's, not payload)
// plus any map-only output lines, read from the slot's buffer before the
// body publishes them. Primary and quiz executions of the same task run
// the same code over the same spec, so equal work yields equal sums
// regardless of combiner settings.
func auditMapSum(out *mapOutcome, sc *taskScratch) (digest.Sum, int64) {
	hs := digest.NewHasher(sc.hashBuf(0))
	var n int64
	var buf []byte
	for p := range out.partitions {
		part := &out.partitions[p]
		for i := range part.recs {
			r := &part.recs[i]
			buf = append(buf[:0], part.key(r)...)
			buf = append(buf, 0x1f, byte(r.tag+1), 0x1f)
			buf = tuple.AppendEncoded(buf, part.tuple(r)[out.keyVals:])
			hs.Write(append(buf, '\n'))
			n++
		}
		hs.WriteByte(0x1e) // partition boundary
	}
	sc.out.hash(hs)
	return hs.Sum(), n + int64(sc.out.lines())
}

// auditReduceSum digests a reduce task's output lines for digest.AuditTaskPoint,
// as digest.OfLines does, from the slot's buffer before the body
// publishes them.
func auditReduceSum(sc *taskScratch) (digest.Sum, int64) {
	hs := digest.NewHasher(sc.hashBuf(0))
	sc.out.hash(hs)
	return hs.Sum(), int64(sc.out.lines())
}

// splitLines partitions a record count into deterministic contiguous
// splits of at most per records; n==0 yields one empty split so that
// empty inputs still produce a (digest-reporting) task.
func splitLines(n, per int) [][2]int {
	if per <= 0 {
		per = 10000
	}
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	var out [][2]int
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// partFileName keeps part-file names sortable and unique per task.
func partFileName(kind TaskKind, inputIdx, index int) string {
	if kind == MapTask {
		return fmt.Sprintf("part-m-%d-%05d", inputIdx, index)
	}
	return fmt.Sprintf("part-r-%05d", index)
}

// joinPath joins a DFS path onto a directory prefix; an empty prefix
// leaves p as it is.
func joinPath(prefix, p string) string {
	if prefix == "" {
		return p
	}
	return strings.TrimSuffix(prefix, "/") + "/" + strings.TrimPrefix(p, "/")
}
