package mapred

// The combining, sort-merge shuffle data path. Map tasks fold
// post-digest records into one open-addressing table keyed by the
// canonical shuffle key and emit one partial-state record per key, into
// its partition; every partition leaves the map task as a key-sorted
// run, and the reduce side replaces its global sort with a k-way
// loser-tree merge over the pre-sorted runs. Verification points digest
// the pre-shuffle stream inside the map operator chain, before any
// record reaches a combiner, so the digests — and, by the algebraic
// restrictions pig.Aggregate.Algebraic enforces — the STORE outputs are
// byte-identical with combining on or off.

import (
	"math/bits"
	"slices"
	"strings"

	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// aggAcc is the partial state of one aggregate over one group: the
// record count and the running sum (SUM/AVG) or extremum (MIN/MAX);
// COUNT uses only n.
type aggAcc struct {
	n int64
	v tuple.Value
}

// mergeAgg folds one increment into acc — the single aggregation step
// shared by every code path: the map-side combiner and the combiner-off
// reduce fold call it with (1, column value) per raw record, the
// reduce-side partial merge with a task-local (n, v) pair. For SUM the
// fold is Add(Add(Int(0), v1), v2)... exactly as the pre-combiner
// implementation computed it, so uncombined results are byte-identical
// by construction; MIN/MAX keep the first-arriving extremum on Compare
// ties, which merging task-local extrema in task order preserves.
func mergeAgg(agg *pig.Aggregate, acc *aggAcc, n int64, v tuple.Value) {
	switch agg.Func {
	case "count":
		// n is the whole state.
	case "sum", "avg":
		if acc.n == 0 {
			acc.v = tuple.Int(0)
		}
		acc.v = tuple.Add(acc.v, v)
	case "min":
		if acc.n == 0 || tuple.Compare(v, acc.v) < 0 {
			acc.v = v
		}
	case "max":
		if acc.n == 0 || tuple.Compare(v, acc.v) > 0 {
			acc.v = v
		}
	}
	acc.n += n
}

// finalizeAgg turns merged partial state into the output value. AVG is
// the integer-division determinism workaround of §5.4 over the (sum,
// count) pair; unknown functions yield null, as the pre-combiner
// implementation did.
func finalizeAgg(agg *pig.Aggregate, acc aggAcc) tuple.Value {
	switch agg.Func {
	case "count":
		return tuple.Int(acc.n)
	case "sum", "min", "max":
		return acc.v
	case "avg":
		return tuple.Div(acc.v, tuple.Int(acc.n))
	default:
		return tuple.Null()
	}
}

// aggOrdinals lists the generator positions carrying aggregates, in
// generator order — the layout of partial-state tuples.
func aggOrdinals(gens []pig.GenItem) []int {
	var idx []int
	for i, g := range gens {
		if g.Agg != nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// putPartial writes per-aggregate partial state into t, the room behind
// a key's values in the outcome's value arrays, as a flat [n0, v0, n1, v1,
// ...] payload, so combined records flow through the same interRec
// plumbing (and byte accounting) as raw ones. A MIN/MAX over a string
// column holds a substring of the split's text; the partial, which
// outlives the task, gets its own copy.
func (c *combiner) putPartial(t tuple.Tuple, accs []aggAcc) {
	for i, a := range accs {
		t[2*i] = tuple.Int(a.n)
		t[2*i+1] = c.keepValue(a.v)
	}
}

// partialAcc decodes the i-th aggregate's (n, v) pair from a
// partial-state tuple.
func partialAcc(t tuple.Tuple, i int) (int64, tuple.Value) {
	if 2*i+1 >= len(t) {
		return 0, tuple.Null()
	}
	return t[2*i].Int(), t[2*i+1]
}

// combiner folds a map task's post-digest output into one open-addressing
// table keyed by the canonical shuffle key, whatever partition each key
// goes to: emit works that out, once a key. Hits cost zero allocations:
// the probe compares a key's first eight bytes as one word, and only the
// bytes past them of a longer key, against the task's key text, without
// materializing a string or a tuple. A first-seen key costs none of its
// own either: its bytes go at the end of the key text, which finish copies
// into the outcome, and its tuple is cut from the outcome's value arrays
// (vals, which fold and emit are handed), its strings from the arena, from
// insert on. The table is the slot's (taskScratch.table): emit empties it.
type combiner struct {
	spec     *ReduceSpec
	aggs     []*pig.Aggregate // ReduceAggregate: aggregates in generator order
	tag      int16
	keyCols  []int // the input's shuffle key projection
	keyVals  int   // ReduceAggregate: len(keyCols), the key ahead of a partial
	numParts int
	table    combineTable
	strs     strArena // the string values of entry tuples
}

type combineTable struct {
	entries []combineEntry
	accs    []aggAcc // ReduceAggregate: len(aggs) per entry, in entry order
	slots   []int32  // 1-based indices into entries; 0 = empty
}

// combineEntry is one key of the table: its word (keyWord) and its record,
// whose key is in the task's key text and whose tuple, the one the entry
// keeps, is in the outcome's value arrays: DISTINCT's first-arriving tuple
// of the key, or an aggregate's key values with room behind them for the
// partial state. It holds no pointer.
type combineEntry struct {
	word uint64
	rec  interRec
}

// newCombiner builds a task's combiner over table and aggs, a slot's
// emptied ones.
func newCombiner(spec *ReduceSpec, in *JobInput, numParts int, table combineTable, aggs []*pig.Aggregate) combiner {
	c := combiner{
		spec:     spec,
		aggs:     aggs[:0],
		tag:      int16(in.Tag),
		keyCols:  in.KeyCols,
		numParts: numParts,
		table:    table,
	}
	if spec.Kind == ReduceAggregate {
		c.keyVals = len(in.KeyCols)
	}
	for _, gen := range spec.Gens {
		if gen.Agg != nil {
			c.aggs = append(c.aggs, gen.Agg)
		}
	}
	return c
}

// fold merges one post-chain tuple into its key's entry, which it adds if
// the key is new: one hash of the key and one probe (find). text is the
// task's key text, which fold returns, grown by the key if it is new. A
// one-column key that is still a source span the batch's plan copies as it
// is (opChain.appendSpan) is probed where it lies, and copied into the text
// only when new; any other key is put together at the end of the text
// (opChain.appendKey) and taken back off on a hit.
func (c *combiner) fold(t tuple.Tuple, ch *opChain, text []byte, vals *valArrays) []byte {
	at := len(text)
	var e int
	if len(c.keyCols) == 1 && ch.fromSrc && c.keyCols[0] < len(t) && ch.plan(c.keyCols[0]) != planValue {
		key := ch.src.Value(c.keyCols[0])
		if e = find(&c.table, text, key); e < 0 {
			text = append(text, key...)
		}
	} else {
		text = ch.appendKey(text, t, c.keyCols)
		e = find(&c.table, text, text[at:])
	}
	if e < 0 {
		e = c.insert(text, at, t, vals)
	} else {
		text = text[:at]
	}
	accs := c.table.accs[e*len(c.aggs):]
	for i, agg := range c.aggs {
		mergeAgg(agg, &accs[i], 1, colOf(t, agg.ColIdx))
	}
	return text
}

// keyWord packs key's first eight bytes little-endian, zero-padded: all of
// a key of at most eight bytes, which its word and length tell apart from
// every other key.
func keyWord[K string | []byte](key K) uint64 {
	var w uint64
	for i := 0; i < len(key) && i < 8; i++ {
		w |= uint64(key[i]) << (8 * i)
	}
	return w
}

// keyHash is the table's hash of key, whose word is w: one multiply over
// the word and the length for a key of at most eight bytes, FNV-1a over
// the bytes for a longer one. A probe starts at its top bits (slotOf),
// which every bit of the word reaches.
func keyHash[K string | []byte](w uint64, key K) uint64 {
	if len(key) <= 8 {
		return (w ^ uint64(len(key))<<56) * 0x9e3779b97f4a7c15
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	return h
}

// slotOf is the slot a probe for hash h starts at, in a table of mask+1
// slots, a power of two: h's top bits.
func slotOf(h, mask uint64) uint64 { return h >> bits.LeadingZeros64(mask) }

// find returns the index of key's entry, -1 when it has none; text holds
// the entries' keys. A key of at most eight bytes is told apart by its
// word and length alone; a longer one is compared in text past a word
// that matches. fold calls it once a record, on the key text's bytes or on
// a span's.
func find[K string | []byte](p *combineTable, text []byte, key K) int {
	if len(p.slots) == 0 {
		return -1
	}
	w := keyWord(key)
	mask := uint64(len(p.slots) - 1)
	for i := slotOf(keyHash(w, key), mask); ; i = (i + 1) & mask {
		s := p.slots[i]
		if s == 0 {
			return -1
		}
		// string(b) in a comparison does not allocate.
		if e := &p.entries[s-1]; e.word == w && int(e.rec.keyLen) == len(key) &&
			(len(key) <= 8 || string(text[e.rec.key:e.rec.key+e.rec.keyLen]) == string(key)) {
			return int(s - 1)
		}
	}
}

// insert adds the entry of text[at:], the key just put together or
// copied, and returns its index.
func (c *combiner) insert(text []byte, at int, t tuple.Tuple, vals *valArrays) int {
	p := &c.table
	if 4*(len(p.entries)+1) > 3*len(p.slots) {
		p.grow(text)
	}
	// An entry outlives the task in its map outcome; its values are
	// substrings of the split's text and the task's rows. Copy what is
	// kept, or a few dozen keys pin the whole split.
	key := text[at:]
	e := combineEntry{word: keyWord(key), rec: interRec{key: int32(at), keyLen: int32(len(key)), tag: c.tag}}
	var kept tuple.Tuple
	if c.spec.Kind == ReduceDistinct {
		kept, e.rec.array, e.rec.off = vals.alloc(len(t))
		for i, v := range t {
			kept[i] = c.keepValue(v)
		}
	} else {
		kept, e.rec.array, e.rec.off = vals.alloc(c.keyVals + 2*len(c.aggs))
		for i, col := range c.keyCols {
			kept[i] = c.keepValue(colOf(t, col))
		}
		n := len(p.accs) + len(c.aggs)
		p.accs = slices.Grow(p.accs, len(c.aggs))[:n]
		clear(p.accs[n-len(c.aggs):])
	}
	e.rec.width = int32(len(kept))
	p.entries = append(p.entries, e)
	p.place(keyHash(e.word, key), int32(len(p.entries)))
	return len(p.entries) - 1
}

func (c *combiner) keepValue(v tuple.Value) tuple.Value {
	if v.Kind() == tuple.KindString {
		return tuple.Str(c.strs.addString(v.Str()))
	}
	return v
}

func (p *combineTable) place(h uint64, idx int32) {
	mask := uint64(len(p.slots) - 1)
	for i := slotOf(h, mask); ; i = (i + 1) & mask {
		if p.slots[i] == 0 {
			p.slots[i] = idx
			return
		}
	}
}

// grow doubles the table's slots and places every entry again, hashed
// from its word and, past it, its key in text. The entries and their
// accumulators grow as append grows them.
func (p *combineTable) grow(text []byte) {
	n := 2 * len(p.slots)
	if n == 0 {
		n = 16
	}
	p.slots = make([]int32, n)
	for i := range p.entries {
		e := &p.entries[i]
		p.place(keyHash(e.word, text[e.rec.key:e.rec.key+e.rec.keyLen]), int32(i+1))
	}
}

// emit turns every entry into its record — the distinct key's
// first-arriving tuple, or the key and its flat partial state, written in
// place behind it — and computes, once a key, the partition partitionOf
// gives its bytes in text. It lays the records out as the partitions' runs
// (scatter), each in table insertion order (first arrival), and returns
// them with their serialized-byte total, which counts no key values. The
// records and their partitions are staged in sc's arrays; finish gives the
// runs their storage and sortRuns orders them. The table is left empty,
// with its arrays, for the slot's next task.
func (c *combiner) emit(text []byte, vals *valArrays, sc *taskScratch) ([]sortedRun, int64) {
	p := &c.table
	sc.recs, sc.parts = slices.Grow(sc.recs[:0], len(p.entries)), slices.Grow(sc.parts[:0], len(p.entries))
	var total int64
	for i := range p.entries {
		r := p.entries[i].rec
		t := tupleAt(vals.arrays, &r)
		if c.spec.Kind != ReduceDistinct {
			c.putPartial(t[c.keyVals:], p.accs[i*len(c.aggs):(i+1)*len(c.aggs)])
		}
		r.encLen = int32(tuple.EncodedLen(t[c.keyVals:]))
		total += r.bytes()
		sc.recs = append(sc.recs, r)
		sc.parts = append(sc.parts, int32(partitionOf(text[r.key:r.key+r.keyLen], c.numParts)))
	}
	clear(p.accs)
	clear(p.slots)
	p.entries, p.accs = p.entries[:0], p.accs[:0]
	return scatter(sc.recs, sc.parts, c.numParts, sc), total
}

// sortRuns sorts each emitted partition into the run order the
// reduce-side merge expects: by canonical key for grouping kinds, by the
// ORDER BY comparator for sorts, equal records in arrival order, so the
// merge's (key, run, position) emission order is exactly the (key,
// global arrival) order the previous reduce-side global sort produced.
// Bare-LIMIT pass-through jobs (ReduceSort with no OrderBy) keep arrival
// order untouched. The sorts' arrays are sc's, one set for all of the
// task's partitions.
func sortRuns(parts []sortedRun, spec *ReduceSpec, sc *taskScratch) {
	switch {
	case spec == nil:
	case spec.Kind != ReduceSort:
		for i := range parts {
			sortKeyed(&parts[i], sc)
		}
	case len(spec.OrderBy) > 0:
		for i := range parts {
			p := &parts[i]
			sortRun(p.recs, func(a, b *interRec) int { return orderCmp(p.tuple(a), p.tuple(b), spec.OrderBy) }, sc)
		}
	}
}

// sortPair is a keyed record in the radix sort: the bytes of its key that
// decide its place, inline (sortWord), and its arrival position.
type sortPair struct {
	word uint64
	pos  int32
}

// sortKeyed sorts one run by (key, arrival position) at the cost of
// the key bytes that tell its records apart. The bytes every key shares
// with the first are skipped; each record's next seven, and how many
// follow, make a word (sortWord) whose order is strings.Compare's; an LSD
// byte radix sorts the (word, position) pairs, one pass for each byte of
// the word that varies across the run. A radix pass is stable, so
// records of one word stay in arrival order; only words that tie on keys
// still longer than they hold are ordered by the rest of the key, within
// their tie. The permutation is applied as sortRun applies its own.
func sortKeyed(p *sortedRun, sc *taskScratch) {
	recs := p.recs
	n := len(recs)
	if n < 2 {
		return
	}
	first := p.key(&recs[0])
	skip := len(first)
	for i := 1; i < n && skip > 0; i++ {
		skip = sharedPrefix(first[:skip], p.key(&recs[i]))
	}
	sc.pairs = resize(sc.pairs, 2*n)
	src, dst := sc.pairs[:n], sc.pairs[n:]
	var diff uint64 // the bits of the word that vary across the run
	for i := range recs {
		w := sortWord(p.key(&recs[i])[skip:])
		src[i] = sortPair{word: w, pos: int32(i)}
		diff |= w ^ src[0].word
	}
	// One pass a byte that varies. A pass costs its records and the span of
	// byte values they hold, not the 256 a byte could, so a short run costs
	// little more than its records.
	var hist [256]int32 // zero between passes
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		lo, hi := byte(0xff), byte(0)
		for _, e := range src {
			d := byte(e.word >> shift)
			hist[d]++
			lo, hi = min(lo, d), max(hi, d)
		}
		at := int32(0)
		for d := int(lo); d <= int(hi); d++ {
			hist[d], at = at, at+hist[d]
		}
		for _, e := range src {
			d := byte(e.word >> shift)
			dst[hist[d]] = e
			hist[d]++
		}
		clear(hist[lo : int(hi)+1])
		src, dst = dst, src
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].word == src[i].word {
			j++
		}
		if j-i > 1 && src[i].word&0xff == 8 {
			rest := skip + 7
			slices.SortFunc(src[i:j], func(a, b sortPair) int {
				if c := strings.Compare(p.key(&recs[a.pos])[rest:], p.key(&recs[b.pos])[rest:]); c != 0 {
					return c
				}
				return int(a.pos - b.pos)
			})
		}
		i = j
	}
	sc.idx = resize(sc.idx, n)
	for i, e := range src {
		sc.idx[i] = e.pos
	}
	permute(recs, sc.idx)
}

// sharedPrefix is the number of leading bytes a and b share.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// sortWord packs s's first seven bytes big-endian, zero-padded, above
// min(len(s), 8). Words order as strings.Compare orders their strings,
// but for strings longer than seven bytes that agree in their first
// seven: those tie.
func sortWord(s string) uint64 {
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | 8
	}
	w := uint64(len(s))
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (56 - 8*i)
	}
	return w
}

// sortRun sorts one run's records by (cmp, arrival position), on sc's
// index. Position breaks every tie, so the order is total and its one
// sorted arrangement is the stable sort by cmp, whatever the algorithm: an
// unstable sort moves 4-byte indices where a stable one rotates 24-byte
// records.
func sortRun(p []interRec, cmp func(a, b *interRec) int, sc *taskScratch) {
	sc.idx = resize(sc.idx, len(p))
	idx := sc.idx
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp(&p[a], &p[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	permute(p, idx)
}

// permute moves every record of p to its sorted place, in place, cycle by
// cycle: each record moves once, through one temporary. idx[i] is the
// arrival position of the record that belongs at i; permute marks the
// places it fills in idx, which it leaves holding 0, 1, 2, ….
func permute(p []interRec, idx []int32) {
	for i := range idx {
		if int(idx[i]) == i {
			continue
		}
		first := p[i]
		j := i
		for int(idx[j]) != i {
			next := int(idx[j])
			p[j] = p[next]
			idx[j] = int32(j)
			j = next
		}
		p[j] = first
		idx[j] = int32(j)
	}
}

// exhausted is the head word of a run with no record left: above every
// sortWord, whose low byte is at most 8, so a spent run loses to any head.
const exhausted = ^uint64(0)

// vacant marks a node of the loser tree that no run has reached yet.
const vacant = ^uint64(0)

// mergeRuns streams the k-way merge of pre-sorted runs through yield,
// using a loser tree: internal nodes cache the loser of their subtree so
// re-seating the champion after each pop costs one leaf-to-root
// comparison path (log k comparisons) instead of a k-wide scan. Records
// leave in (order, run index, position) order. Keyed, the order is the
// canonical key's, strings.Compare's, decided a word at a time: each
// run's head key is held as its sortWord, whose order is the keys', and
// two heads are compared by their words alone unless the words are equal
// with low byte 8 — keys of at least 8 bytes that share their first 7 —
// when the rest of the keys decides. Equal words with a lower low byte
// are equal keys. Unkeyed, the order is cmp's; a nil cmp treats all
// records as equal, so runs concatenate in run order. Runs are read-only
// throughout — concurrent reduce attempts may share them; the merge
// consumes its own copies of their headers, sc.live. The merge's arrays
// are sc's; the task wipes sc.live when it is done.
func mergeRuns(runs []sortedRun, keyed bool, cmp func(a, b recAt) int, yield func(recAt), sc *taskScratch) {
	live := sc.live[:0]
	for _, r := range runs {
		if len(r.recs) > 0 {
			live = append(live, r)
		}
	}
	sc.live = live
	k := len(live)
	switch k {
	case 0:
		return
	case 1:
		for i := range live[0].recs {
			yield(recAt{&live[0], &live[0].recs[i]})
		}
		return
	}
	// One array for the head words and the tree, whose nodes hold run
	// indices: leaf r is node k+r, and internal node j (1 ≤ j < k) holds
	// the loser of the match between its subtrees' winners.
	sc.tree = resize(sc.tree, 2*k)
	words, tree := sc.tree[:k], sc.tree[k:]
	head := func(r uint64) recAt {
		if len(live[r].recs) == 0 {
			return recAt{}
		}
		return recAt{&live[r], &live[r].recs[0]}
	}
	word := func(r uint64) uint64 {
		if h := head(r); h.rec != nil {
			return sortWord(h.key())
		}
		return exhausted
	}
	if keyed {
		for r := range words {
			words[r] = word(uint64(r))
		}
	}
	// beats reports whether run a's head is emitted before run b's:
	// smaller record first, lower run index on ties, exhausted runs
	// last.
	beats := func(a, b uint64) bool {
		if keyed {
			if wa, wb := words[a], words[b]; wa != wb {
				return wa < wb
			} else if wa&0xff == 8 {
				if c := strings.Compare(head(a).key()[7:], head(b).key()[7:]); c != 0 {
					return c < 0
				}
			}
			return a < b
		}
		ha, hb := head(a), head(b)
		if hb.rec == nil {
			return ha.rec != nil
		}
		if ha.rec == nil {
			return false
		}
		if cmp != nil {
			if c := cmp(ha, hb); c != 0 {
				return c < 0
			}
		}
		return a < b
	}
	// Build by replaying every leaf into vacant nodes: a head that reaches
	// a vacant node waits there for the other subtree's winner, so the
	// last replay, the first to reach the root, carries the champion out.
	for j := range tree {
		tree[j] = vacant
	}
	var champ uint64
	for r := 0; r < k; r++ {
		champ = uint64(r)
		for j := (k + r) / 2; j >= 1; j /= 2 {
			if tree[j] == vacant {
				tree[j] = champ
				break
			}
			if beats(tree[j], champ) {
				tree[j], champ = champ, tree[j]
			}
		}
	}
	for {
		h := head(champ)
		if h.rec == nil {
			return
		}
		yield(h)
		live[champ].recs = live[champ].recs[1:]
		if keyed {
			words[champ] = word(champ)
		}
		// Replay the champion's leaf-to-root path: the new head competes
		// against the cached losers.
		cur := champ
		for j := (k + int(champ)) / 2; j >= 1; j /= 2 {
			if beats(tree[j], cur) {
				tree[j], cur = cur, tree[j]
			}
		}
		champ = cur
	}
}
