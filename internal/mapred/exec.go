package mapred

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"

	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// interRec is one shuffled record: its key's canonical string, which
// partitions, sorts and groups it, the tuple it carries, and the join tag.
// The key's values are not kept beside them: an aggregate reads them from
// t, through the input's KeyCols or, in a combined partial, as the prefix
// ahead of the partial state (mapOutcome.keyVals). Only what follows that
// prefix is the record's payload, which encLen measures.
type interRec struct {
	keyStr string
	t      tuple.Tuple
	tag    int32
	encLen int32 // len(EncodeLine(payload)), fixed at record creation
}

// bytes estimates the serialized size of the record for local-I/O
// accounting (key + payload + framing).
func (r interRec) bytes() int64 {
	return int64(len(r.keyStr)) + int64(r.encLen) + 2
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
	// put together from the batch's spans meanwhile.
	src     *dfs.Batch
	schema  *tuple.Schema
	fromSrc bool
}

// opState is what one op of a running chain keeps between records.
type opState struct {
	// PhysDigest: nil when digests are off, and in a digest fused into the
	// one before it (digest.Writer.Also).
	w      *digest.Writer
	passed int64       // PhysLimit: records let through so far
	out    tuple.Tuple // PhysProject: reusable output, nil to allocate
}

// newOpChain builds the chain for one task. reuse lets each PhysProject
// write every record into one buffer of its own; the caller must then be
// done with a tuple apply returned before it calls apply again.
func newOpChain(ops []Op, df digestFactory, reuse bool) opChain {
	c := opChain{ops: ops, state: make([]opState, len(ops))}
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
			} else {
				c.state[first].w.Also(op.Point)
			}
		case op.Kind == PhysProject && reuse:
			c.state[i].out = make(tuple.Tuple, len(op.Gens))
		}
	}
	return c
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
			if out == nil {
				out = make(tuple.Tuple, len(op.Gens))
			}
			for g, gen := range op.Gens {
				out[g] = gen.Expr.Eval(t)
			}
			t = out
			c.canonOK, c.fromSrc = false, false
		case PhysDigest:
			if st.w != nil {
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
	// AppendCoerced writes what encoding t's values would, whether or not
	// t holds them, and copies the span wherever that is the same bytes.
	buf := c.canon[:0]
	for i, w := 0, c.src.Width(); i < w; i++ {
		if i > 0 {
			buf = append(buf, '\t')
		}
		buf = c.schema.ColType(i).AppendCoerced(buf, c.src.Value(i))
	}
	c.canon = append(buf, '\n')
	return c.canon
}

// appendKey appends to dst the shuffle key of t, the tuple apply just
// returned: the encoding of its cols, null past its width. While t is
// still the source record, each is copied from its span
// (FieldType.AppendCoerced's raw-canonical rule, which a batch's
// escape-free values meet), else encoded from t's values.
func (c *opChain) appendKey(dst []byte, t tuple.Tuple, cols []int) []byte {
	for i, col := range cols {
		if i > 0 {
			dst = append(dst, '\t')
		}
		switch {
		case col >= len(t): // null: no bytes
		case c.fromSrc:
			dst = c.schema.ColType(col).AppendCoerced(dst, c.src.Value(col))
		default:
			dst = tuple.AppendEncoded(dst, t[col:col+1])
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

// sampleKeep deterministically selects a fraction of tuples by hashing
// their canonical bytes, so every replica samples the same subset and
// digests stay comparable (§5.4 determinism requirement). fraction is
// clamped to [0, 1]: it is client input, and converting a negative
// float to uint64 yields a platform-dependent value in Go (the spec
// leaves out-of-range float→integer conversions implementation-defined)
// rather than the "keep nothing" a negative fraction means.
func sampleKeep(t tuple.Tuple, fraction float64) bool {
	return sampleKeepHash(tuple.AppendCanonical(nil, t), fraction)
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

// sampleKeepHash is sampleKeep over pre-encoded canonical bytes; callers
// on the per-record path reuse one scratch buffer for the encoding.
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

// partitionOf hash-partitions a shuffle key string (inline FNV-1a over
// the string bytes; no []byte copy).
func partitionOf(keyStr string, numReduces int) int {
	if numReduces <= 1 {
		return 0
	}
	h := uint32(fnvOffset32)
	for i := 0; i < len(keyStr); i++ {
		h ^= uint32(keyStr[i])
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
	partitions  [][]interRec // shuffle jobs: per-reduce-partition sorted runs
	keyVals     int          // key values ahead of the payload in each record's t
	taskOutput               // map-only jobs: final output records
	inBytes     int64        // input read, as lines with a newline each
	recordsIn   int64
	recordsOut  int64 // records surviving the operator chain
	shuffleRecs int64 // records written into shuffle partitions
	combinedIn  int64 // records folded into the combiner (0 when off)
	digested    int64
	localBytes  int64 // shuffle bytes written
}

// taskOutput is what a map-only or reduce task writes to its part file.
// runMapTask and runReduceTask leave outLines as emitted, in the slot's
// scratch; the body publishes them before it hands the scratch back.
type taskOutput struct {
	outLines []string
	sealed   dfs.Sealed // outLines as the part file's blocks, for the commit to install
}

// publish ends the output a task left in sc: with fs set, outLines are
// sealed for the commit to install and kept, in an array of their own,
// only if keep — something reads them after the body; with fs nil (a quiz,
// whose commit is dropped, or a shuffle, whose output is its partitions)
// nothing of them is. sc goes back holding none.
func (o *taskOutput) publish(sc *taskScratch, fs *dfs.FS, keep bool) {
	lines := o.outLines
	o.outLines = nil
	if fs != nil {
		o.sealed = fs.Seal(lines)
		if keep {
			// Lines short of a block are all tail, already an array of their own.
			if o.outLines = o.sealed.Tail(); len(o.outLines) < len(lines) {
				o.outLines = slices.Clone(lines)
			}
		}
	}
	clear(sc.outLines) // only ever appended to: past its length it is zero already
	sc.outLines = sc.outLines[:0]
}

// corruptFn is TaskFault.Corrupt's type; nil for honest execution.
type corruptFn func(v tuple.Value, cat func(s, suffix string) string) tuple.Value

// taskScratch is what a worker slot keeps from one task body to the next:
// the arrays a task grows and is done with when it returns, one body's at
// a time because the slot is (Engine.borrow). It carries capacity, never
// content: a task leaves every string, tuple and run slot of it zero, so
// nothing of its split or its outcome is held for, or seen by, the next,
// and no outcome points into it.
type taskScratch struct {
	batch    dfs.Batch     // map: the chain's source batch, its shape arrays, offsets and unescape buffer
	row      tuple.Tuple   // the reused source row; the aggregate's output row
	enc      []byte        // map: shuffle key bytes
	canon    []byte        // the chain's canonical bytes
	tables   []combinePart // map: combiner tables, emptied by emit
	idx      []int32       // map: the sorts' permutation
	pairs    []sortPair    // map: sortKeyed's radix pairs, two a record
	live     [][]interRec  // reduce: the runs being merged
	tree     []int32       // reduce: their positions and the loser tree
	left     []tuple.Tuple // reduce: a join key's left side
	right    []tuple.Tuple // reduce: its right side
	joined   tuple.Tuple   // reduce: a pair of them
	accs     []aggAcc      // reduce: one group's aggregates
	key      tuple.Tuple   // reduce: an uncombined group's key
	outLines []string      // output lines as emitted, until the body publishes them (taskOutput)
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
	comb    *combiner
	corrupt corruptFn
	o       taskObs
	sc      *taskScratch
	// Only the uncombined shuffle keeps the chain's tuples (in interRec);
	// the combiner detaches what it keeps and output lines are encoded at
	// once, so there a projection may reuse its buffer, and so may the row.
	// Where not, rows are carved from slab, whose arrays are the outcome's.
	reuse bool
	slab  tuple.Slab
	// Key strings, or map-only output lines, live as long as the outcome:
	// an arena for all of them, not an allocation a record.
	strs strArena
	// cat cuts a corrupting task's strings from an arena of their own: the
	// next record is done with them, and the outcome is not to hold them.
	cat func(s, suffix string) string
}

// newMapRun sets up a map task of n records over input inputIdx of job, on
// the scratch of the slot it runs on. Its chain's digests are the caller's
// to close.
func newMapRun(job *JobSpec, inputIdx, n int, df digestFactory, corrupt corruptFn, o taskObs, sc *taskScratch) mapRun {
	in := &job.Inputs[inputIdx]
	m := mapRun{job: job, in: in, out: &mapOutcome{}, corrupt: corrupt, o: o, sc: sc}
	shuffle := in.KeyCols != nil
	if shuffle && job.Reduce != nil && job.Reduce.Combine {
		m.comb = newCombiner(job.Reduce, in, job.NumReduces, sc.tables)
	} else if shuffle {
		m.out.partitions = make([][]interRec, job.NumReduces)
		per := n/job.NumReduces + 1
		for p := range m.out.partitions {
			m.out.partitions[p] = make([]interRec, 0, per)
		}
	}
	m.reuse = m.comb != nil || !shuffle
	m.chain = newOpChain(in.Ops, df, m.reuse)
	m.chain.canon, m.chain.src, m.chain.schema = sc.canon, &sc.batch, in.Schema
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
	case m.comb != nil:
		// Digests fired inside the chain above; combining only
		// reshapes what crosses the shuffle.
		sc.enc = m.comb.fold(t, &m.chain, sc.enc)
	case in.KeyCols != nil:
		sc.enc = m.chain.appendKey(sc.enc[:0], t, in.KeyCols)
		rec := interRec{keyStr: m.strs.add(sc.enc), t: t, tag: int32(in.Tag), encLen: int32(tuple.EncodedLen(t))}
		p := partitionOf(rec.keyStr, m.job.NumReduces)
		out.partitions[p] = append(out.partitions[p], rec)
		out.localBytes += rec.bytes()
	default:
		sc.outLines = append(sc.outLines, m.strs.add(m.chain.line(t)))
	}
}

// finish ends the task once every record went through record: it emits
// the combiner, sorts the partitions and counts the outcome, and hands the
// scratch back empty but for the output lines.
func (m *mapRun) finish() *mapOutcome {
	out, sc, o := m.out, m.sc, m.o
	shuffle := m.in.KeyCols != nil
	out.digested = m.chain.digests
	if m.comb != nil {
		out.combinedIn = out.recordsOut
		out.partitions, out.localBytes = m.comb.emit()
		out.keyVals = m.comb.keyVals
		sc.tables = m.comb.parts
		for _, p := range out.partitions {
			out.shuffleRecs += int64(len(p))
		}
	} else if shuffle {
		out.shuffleRecs = out.recordsOut
		if 2*out.recordsOut <= out.recordsIn {
			// The few survivors of a selective chain would each pin a tuple
			// slab and the split's text for the life of the outcome.
			for p, part := range out.partitions {
				kept := make([]interRec, len(part))
				for i, r := range part {
					r.t = detach(r.t)
					kept[i] = r
				}
				out.partitions[p] = kept
			}
		}
	}
	if shuffle {
		sortRuns(out.partitions, m.job.Reduce, sc)
		o.shuffleRecords.Add(out.shuffleRecs)
		o.combineRecords.Add(out.combinedIn)
	} else {
		o.outRecords.Add(out.recordsOut)
	}
	// The row held values of the split's text; the batch let go of its own.
	out.outLines = sc.outLines
	sc.row, sc.canon = wipe(sc.row), m.chain.canon
	return out
}

// runMapTask executes one map task over records [lo, hi) of its input,
// on the scratch of the slot it runs on. Every record reaches the chain
// through the slot's dfs.Batch (a sealed block's as column spans, held
// lines where they are) as a row of values coerced straight from it, the
// columns neededCols lists and no line rebuilt. Where nothing keeps the
// chain's tuples (reuse) every record overwrites one row; the uncombined
// shuffle carves its rows from a slab.
func runMapTask(job *JobSpec, inputIdx int, src *dfs.Reader, lo, hi int, df digestFactory, corrupt corruptFn, o taskObs, sc *taskScratch) *mapOutcome {
	m := newMapRun(job, inputIdx, hi-lo, df, corrupt, o, sc)
	defer m.chain.close()
	schema := m.in.Schema
	eval, carry := neededCols(job, inputIdx)
	batch := &sc.batch
	for lo < hi {
		lo = src.ReadColumns(batch, lo, hi, carry)
		m.out.inBytes += batch.LineBytes()
		for batch.Next() {
			// A corrupting task's digests are of tuples no span holds. A
			// chain that reads the source reads no column of the tuple but
			// eval's; one that does not encodes the tuple, every carried column.
			m.chain.fromSrc = corrupt == nil && batch.Plain()
			coerce := eval
			if !m.chain.fromSrc {
				coerce = carry
			}
			var t tuple.Tuple
			if w := batch.Width(); m.reuse {
				if len(sc.row) < w {
					sc.row = resize(sc.row, w)
				}
				t = sc.row[:w]
				if corrupt != nil {
					clear(t) // what is not coerced is null to tamper with, not the last record's
				}
			} else {
				t = m.slab.Tuple(w)
			}
			for c := range t {
				if coerce == nil || c < len(coerce) && coerce[c] {
					t[c] = schema.ColType(c).Coerce(batch.Value(c))
				}
			}
			m.record(t)
		}
	}
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
// over by the next record, and output lines are cut from one arena.
func runReduceTask(job *JobSpec, runs [][]interRec, df digestFactory, o taskObs, sc *taskScratch) *reduceOutcome {
	spec := job.Reduce
	chain := newOpChain(spec.PostOps, df, true)
	chain.canon = sc.canon
	defer chain.close()
	out := &reduceOutcome{}
	var liveRuns int64
	for _, r := range runs {
		out.recordsIn += int64(len(r))
		if len(r) > 0 {
			liveRuns++
		}
	}
	o.reduceRecords.Add(out.recordsIn)
	o.mergedRuns.Add(liveRuns)
	var lines strArena
	emit := func(t tuple.Tuple) {
		if t, ok := chain.apply(t); ok {
			out.recordsOut++
			sc.outLines = append(sc.outLines, lines.add(chain.line(t)))
		}
	}
	keyCmp := func(a, b *interRec) int { return strings.Compare(a.keyStr, b.keyStr) }

	switch spec.Kind {
	case ReduceSort:
		var cmp func(a, b *interRec) int
		if len(spec.OrderBy) > 0 {
			cmp = func(a, b *interRec) int { return orderCmp(a.t, b.t, spec.OrderBy) }
		}
		mergeRuns(runs, cmp, func(r *interRec) { emit(r.t) }, sc)
	case ReduceDistinct:
		started := false
		var lastKey string
		mergeRuns(runs, keyCmp, func(r *interRec) {
			if started && r.keyStr == lastKey {
				return
			}
			started = true
			lastKey = r.keyStr
			emit(r.t) // first arrival of each key, keys sorted
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
		mergeRuns(runs, keyCmp, func(r *interRec) {
			if !started || r.keyStr != lastKey {
				if started {
					flush()
				}
				started = true
				lastKey = r.keyStr
				if spec.Combine {
					curKey = r.t[:keyVals]
				} else {
					for i, c := range keyCols {
						curKey[i] = colOf(r.t, c)
					}
				}
				for i := range accs {
					accs[i] = aggAcc{}
				}
			}
			for j, gi := range aggIdx {
				agg := spec.Gens[gi].Agg
				if spec.Combine {
					n, v := partialAcc(r.t[keyVals:], j)
					mergeAgg(agg, &accs[j], n, v)
				} else {
					mergeAgg(agg, &accs[j], 1, colOf(r.t, agg.ColIdx))
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
			for _, lt := range left {
				joined = append(joined[:0], lt...)
				for _, rt := range right {
					joined = append(joined[:len(lt)], rt...)
					emit(joined)
				}
			}
			left, right = left[:0], right[:0]
		}
		mergeRuns(runs, keyCmp, func(r *interRec) {
			if !started || r.keyStr != lastKey {
				if started {
					flush()
				}
				started = true
				lastKey = r.keyStr
			}
			// Merge order preserves arrival order within each side.
			if r.tag == 0 {
				left = append(left, r.t)
			} else {
				right = append(right, r.t)
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
	out.outLines = sc.outLines
	sc.live, sc.accs, sc.row, sc.key, sc.canon = wipe(sc.live), wipe(sc.accs), wipe(sc.row), wipe(sc.key), chain.canon
	return out
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

// auditMapSum digests a map task's full output for AuditTaskPoint: the
// shuffle partitions in partition order (key, separator, payload per
// record; a combined partial's key values are its key's, not payload)
// plus any map-only output lines. Primary and quiz executions of
// the same task run the same code over the same spec, so equal work
// yields equal sums regardless of combiner settings.
func auditMapSum(out *mapOutcome) (digest.Sum, int64) {
	h := sha256.New()
	var n int64
	var buf []byte
	for _, part := range out.partitions {
		for i := range part {
			h.Write([]byte(part[i].keyStr))
			h.Write([]byte{0x1f, byte(part[i].tag + 1), 0x1f})
			buf = tuple.AppendEncoded(buf[:0], part[i].t[out.keyVals:])
			h.Write(buf)
			h.Write([]byte{'\n'})
			n++
		}
		h.Write([]byte{0x1e}) // partition boundary
	}
	for _, l := range out.outLines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
		n++
	}
	var s digest.Sum
	h.Sum(s[:0])
	return s, n
}

// auditReduceSum digests a reduce task's output lines for AuditTaskPoint.
func auditReduceSum(out *reduceOutcome) (digest.Sum, int64) {
	return digest.OfLines(out.outLines), int64(len(out.outLines))
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
