package mapred

// The combining, sort-merge shuffle data path. Map tasks fold
// post-digest records into per-partition open-addressing tables keyed by
// the canonical shuffle key and emit one partial-state record per
// (partition, key); every partition leaves the map task as a key-sorted
// run, and the reduce side replaces its global sort with a k-way
// loser-tree merge over the pre-sorted runs. Verification points digest
// the pre-shuffle stream inside the map operator chain, before any
// record reaches a combiner, so the digests — and, by the algebraic
// restrictions pig.Aggregate.Algebraic enforces — the STORE outputs are
// byte-identical with combining on or off.

import (
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
// a key's values, as a flat [n0, v0, n1, v1, ...] payload, so combined
// records flow through the same interRec plumbing (and byte accounting)
// as raw ones. A MIN/MAX over a string column holds a substring of the
// split's text; the partial, which outlives the task, gets its own copy.
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

// combiner folds a map task's post-digest output into per-partition
// open-addressing tables keyed by the canonical shuffle key. Hits cost
// zero allocations: the key's bytes are put together in the task's scratch
// buffer and the probe compares them against stored keys without
// materializing a string or a tuple. A first-seen key costs none of its
// own either: what its entry keeps is cut from the slab and the arena,
// which the task's outcome holds together for as long as it lives. The
// tables are the slot's (taskScratch.tables): emit empties them.
type combiner struct {
	spec    *ReduceSpec
	aggs    []*pig.Aggregate // ReduceAggregate: aggregates in generator order
	tag     int32
	keyCols []int // the input's shuffle key projection
	keyVals int   // ReduceAggregate: len(keyCols), the key ahead of a partial
	parts   []combinePart
	slab    tuple.Slab // entry tuples
	strs    strArena   // key strings and the string values of kept tuples
}

type combinePart struct {
	entries []combineEntry
	accs    []aggAcc // ReduceAggregate: len(aggs) per entry, in entry order
	slots   []int32  // 1-based indices into entries; 0 = empty
}

// combineEntry is one key of a table. t is the one tuple it keeps, and
// its record's: DISTINCT's first-arriving tuple of the key, or an
// aggregate's key values with room behind them for the partial state.
type combineEntry struct {
	hash   uint64
	keyStr string
	t      tuple.Tuple
}

// newCombiner builds a task's combiner over tables, a slot's emptied ones.
func newCombiner(spec *ReduceSpec, in *JobInput, numParts int, tables []combinePart) *combiner {
	c := &combiner{
		spec:    spec,
		tag:     int32(in.Tag),
		keyCols: in.KeyCols,
		parts:   resize(tables, numParts),
	}
	if spec.Kind == ReduceAggregate {
		c.keyVals = len(in.KeyCols)
	}
	for _, i := range aggOrdinals(spec.Gens) {
		c.aggs = append(c.aggs, spec.Gens[i].Agg)
	}
	return c
}

// fold routes one post-chain tuple into its partition's table, merging
// into the existing entry when the key was already seen: one probe. The
// key's canonical bytes go into enc, the task's scratch, returned possibly
// grown (opChain.appendKey). One pass over them advances the table's hash
// and partitionOf's, so combined and uncombined records of one key land on
// the same reduce partition.
func (c *combiner) fold(t tuple.Tuple, ch *opChain, enc []byte) []byte {
	enc = ch.appendKey(enc[:0], t, c.keyCols)
	h, ph := uint64(fnvOffset64), uint32(fnvOffset32)
	for _, b := range enc {
		h = (h ^ uint64(b)) * fnvPrime64
		ph = (ph ^ uint32(b)) * fnvPrime32
	}
	part := &c.parts[ph%uint32(len(c.parts))]
	e := part.find(h, enc)
	if e < 0 {
		e = part.insert(h, enc, t, c)
	}
	accs := part.accs[e*len(c.aggs):]
	for i, agg := range c.aggs {
		mergeAgg(agg, &accs[i], 1, colOf(t, agg.ColIdx))
	}
	return enc
}

// find returns the index of key's entry, -1 when it has none.
func (p *combinePart) find(h uint64, key []byte) int {
	if len(p.slots) == 0 {
		return -1
	}
	mask := uint64(len(p.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := p.slots[i]
		if s == 0 {
			return -1
		}
		e := &p.entries[s-1]
		// string(key) in a comparison does not allocate.
		if e.hash == h && e.keyStr == string(key) {
			return int(s - 1)
		}
	}
}

// insert adds key's entry and returns its index.
func (p *combinePart) insert(h uint64, key []byte, t tuple.Tuple, c *combiner) int {
	if 4*(len(p.entries)+1) > 3*len(p.slots) {
		p.grow(len(c.aggs))
	}
	// An entry outlives the task in its map outcome; its values are
	// substrings of the split's text and its tuples the task's rows. Copy
	// what is kept, or a few dozen keys pin the whole split.
	e := combineEntry{hash: h, keyStr: c.strs.add(key)}
	if c.spec.Kind == ReduceDistinct {
		e.t = c.keep(t)
	} else {
		e.t = c.slab.Tuple(c.keyVals + 2*len(c.aggs))
		for i, col := range c.keyCols {
			e.t[i] = c.keepValue(colOf(t, col))
		}
		n := len(p.accs) + len(c.aggs)
		p.accs = slices.Grow(p.accs, len(c.aggs))[:n]
		clear(p.accs[n-len(c.aggs):])
	}
	p.entries = append(p.entries, e)
	p.place(h, int32(len(p.entries)))
	return len(p.entries) - 1
}

// keep copies t into the combiner's slab, string bytes into its arena.
func (c *combiner) keep(t tuple.Tuple) tuple.Tuple {
	k := c.slab.Tuple(len(t))
	for i, v := range t {
		k[i] = c.keepValue(v)
	}
	return k
}

func (c *combiner) keepValue(v tuple.Value) tuple.Value {
	if v.Kind() == tuple.KindString {
		return tuple.Str(c.strs.addString(v.Str()))
	}
	return v
}

// detach copies t into storage of its own, string bytes included.
func detach(t tuple.Tuple) tuple.Tuple {
	c := make(tuple.Tuple, len(t))
	for i, v := range t {
		c[i] = detachValue(v)
	}
	return c
}

func detachValue(v tuple.Value) tuple.Value {
	if v.Kind() == tuple.KindString {
		return tuple.Str(strings.Clone(v.Str()))
	}
	return v
}

func (p *combinePart) place(h uint64, idx int32) {
	mask := uint64(len(p.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if p.slots[i] == 0 {
			p.slots[i] = idx
			return
		}
	}
}

// grow doubles the table, and with it the room for the entries and
// accumulators it can index before it next grows.
func (p *combinePart) grow(aggs int) {
	n := 2 * len(p.slots)
	if n == 0 {
		n = 16
	}
	p.slots = make([]int32, n)
	for i := range p.entries {
		p.place(p.entries[i].hash, int32(i+1))
	}
	room := 3*n/4 - len(p.entries)
	p.entries = slices.Grow(p.entries, room)
	p.accs = slices.Grow(p.accs, room*aggs)
}

// emit materializes every partition as interRec records — the distinct
// key's first-arriving tuple, or the key and its flat partial state — in
// table insertion order (first arrival), and returns the partitions with
// their serialized-byte total, which counts no key values. sortRuns
// orders them afterwards. The tables are left empty, with their arrays,
// for the slot's next task.
func (c *combiner) emit() ([][]interRec, int64) {
	parts := make([][]interRec, len(c.parts))
	var total int64
	for pi := range c.parts {
		p := &c.parts[pi]
		if len(p.entries) == 0 {
			continue
		}
		recs := make([]interRec, len(p.entries))
		for i := range p.entries {
			e := &p.entries[i]
			if c.spec.Kind != ReduceDistinct {
				c.putPartial(e.t[c.keyVals:], p.accs[i*len(c.aggs):(i+1)*len(c.aggs)])
			}
			recs[i] = interRec{keyStr: e.keyStr, t: e.t, tag: c.tag, encLen: int32(tuple.EncodedLen(e.t[c.keyVals:]))}
			total += recs[i].bytes()
		}
		parts[pi] = recs
		clear(p.entries)
		clear(p.accs)
		clear(p.slots)
		p.entries, p.accs = p.entries[:0], p.accs[:0]
	}
	return parts, total
}

// sortRuns sorts each emitted partition into the run order the
// reduce-side merge expects: by canonical key for grouping kinds, by the
// ORDER BY comparator for sorts, equal records in arrival order, so the
// merge's (key, run, position) emission order is exactly the (key,
// global arrival) order the previous reduce-side global sort produced.
// Bare-LIMIT pass-through jobs (ReduceSort with no OrderBy) keep arrival
// order untouched. The sorts' arrays are sc's, one set for all of the
// task's partitions.
func sortRuns(parts [][]interRec, spec *ReduceSpec, sc *taskScratch) {
	switch {
	case spec == nil:
	case spec.Kind != ReduceSort:
		for _, p := range parts {
			sortKeyed(p, sc)
		}
	case len(spec.OrderBy) > 0:
		cmp := func(a, b *interRec) int { return orderCmp(a.t, b.t, spec.OrderBy) }
		for _, p := range parts {
			sortRun(p, cmp, sc)
		}
	}
}

// sortPair is a keyed record in the radix sort: the bytes of its key that
// decide its place, inline (sortWord), and its arrival position.
type sortPair struct {
	word uint64
	pos  int32
}

// sortKeyed sorts one run by (keyStr, arrival position) at the cost of
// the key bytes that tell its records apart. The bytes every key shares
// with the first are skipped; each record's next seven, and how many
// follow, make a word (sortWord) whose order is strings.Compare's; an LSD
// byte radix sorts the (word, position) pairs, one pass for each byte of
// the word that varies across the run. A radix pass is stable, so
// records of one word stay in arrival order; only words that tie on keys
// still longer than they hold are ordered by the rest of the key, within
// their tie. The permutation is applied as sortRun applies its own.
func sortKeyed(p []interRec, sc *taskScratch) {
	n := len(p)
	if n < 2 {
		return
	}
	first := p[0].keyStr
	skip := len(first)
	for i := 1; i < n && skip > 0; i++ {
		skip = sharedPrefix(first[:skip], p[i].keyStr)
	}
	sc.pairs = resize(sc.pairs, 2*n)
	src, dst := sc.pairs[:n], sc.pairs[n:]
	var diff uint64 // the bits of the word that vary across the run
	for i := range p {
		w := sortWord(p[i].keyStr[skip:])
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
				if c := strings.Compare(p[a.pos].keyStr[rest:], p[b.pos].keyStr[rest:]); c != 0 {
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
	permute(p, sc.idx)
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

// sortRun sorts one run by (cmp, arrival position), on sc's index. Position
// breaks every tie, so the order is total and its one sorted arrangement
// is the stable sort by cmp, whatever the algorithm: an unstable sort
// moves 4-byte indices where a stable one rotates 48-byte records.
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

// mergeRuns streams the k-way merge of pre-sorted runs through yield in
// (cmp, run index, position) order, using a loser tree: internal nodes
// cache the loser of their subtree so re-seating the champion after
// each pop costs one leaf-to-root comparison path (log k comparisons)
// instead of a k-wide scan. A nil cmp treats all records as equal, so
// runs concatenate in run order. Runs are read-only throughout —
// concurrent reduce attempts may share them. The merge's arrays are sc's;
// the task wipes sc.live when it is done.
func mergeRuns(runs [][]interRec, cmp func(a, b *interRec) int, yield func(*interRec), sc *taskScratch) {
	live := sc.live[:0]
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	sc.live = live
	k := len(live)
	switch k {
	case 0:
		return
	case 1:
		for i := range live[0] {
			yield(&live[0][i])
		}
		return
	}
	sc.tree = resize(sc.tree, 4*k) // one array for the positions and the tree
	pos, tree, winner := sc.tree[:k], sc.tree[k:2*k], sc.tree[2*k:]
	clear(pos)
	head := func(r int32) *interRec {
		if int(pos[r]) >= len(live[r]) {
			return nil
		}
		return &live[r][pos[r]]
	}
	// beats reports whether run a's head is emitted before run b's:
	// smaller record first, lower run index on ties, exhausted runs
	// last.
	beats := func(a, b int32) bool {
		ha, hb := head(a), head(b)
		if hb == nil {
			return ha != nil
		}
		if ha == nil {
			return false
		}
		if cmp != nil {
			if c := cmp(ha, hb); c != 0 {
				return c < 0
			}
		}
		return a < b
	}
	// Heap-shaped tree: leaf r sits at node k+r, internal nodes 1..k-1
	// hold the loser of their subtree, and the overall winner bubbles
	// out of the build.
	for r := 0; r < k; r++ {
		winner[k+r] = int32(r)
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winner[2*j], winner[2*j+1]
		if beats(a, b) {
			winner[j], tree[j] = a, b
		} else {
			winner[j], tree[j] = b, a
		}
	}
	champ := winner[1]
	for {
		h := head(champ)
		if h == nil {
			return
		}
		yield(h)
		pos[champ]++
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
