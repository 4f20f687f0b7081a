package mapred

// Equivalence oracles for the allocation-free shuffle and reduce paths:
// the permutation sort against the stable sort it replaced, and the
// buffer-reusing reduce against one that allocates every tuple it makes
// and encodes at every digest.

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
	"clusterbft/internal/workload"
)

// testRec is a shuffle record as a test writes and reads one: its key, its
// tuple and its join tag.
type testRec struct {
	key string
	t   tuple.Tuple
	tag int16
}

// layOut lays parts out as the runs of one map outcome: every key in one
// text, every tuple in one set of value arrays, each record's encLen its
// whole tuple's.
func layOut(parts ...[]testRec) []sortedRun {
	var text []byte
	var vals valArrays
	runs := make([]sortedRun, len(parts))
	for p, recs := range parts {
		for _, r := range recs {
			kept, array, off := vals.alloc(len(r.t))
			copy(kept, r.t)
			runs[p].recs = append(runs[p].recs, interRec{key: int32(len(text)), keyLen: int32(len(r.key)),
				array: array, off: off, tag: r.tag, width: int32(len(r.t)), encLen: int32(tuple.EncodedLen(r.t))})
			text = append(text, r.key...)
		}
	}
	for p := range runs {
		runs[p].text, runs[p].vals = string(text), vals.arrays
	}
	return runs
}

// readRun lists p's records as a test writes them.
func readRun(p sortedRun) []testRec {
	recs := make([]testRec, len(p.recs))
	for i := range p.recs {
		r := &p.recs[i]
		recs[i] = testRec{key: p.key(r), t: p.tuple(r), tag: r.tag}
	}
	return recs
}

// staged lists the output lines a task left in sc, before its publish.
func staged(sc *taskScratch) []string {
	lines := make([]string, sc.out.lines())
	for i := range lines {
		lines[i] = string(sc.out.line(i))
	}
	return lines
}

// stableSortRuns is sortRuns as it was: a stable sort moving the records
// themselves.
func stableSortRuns(parts []sortedRun, spec *ReduceSpec) {
	if spec.Kind == ReduceSort {
		if len(spec.OrderBy) == 0 {
			return
		}
		for _, p := range parts {
			slices.SortStableFunc(p.recs, func(a, b interRec) int { return orderCmp(p.tuple(&a), p.tuple(&b), spec.OrderBy) })
		}
		return
	}
	for _, p := range parts {
		slices.SortStableFunc(p.recs, func(a, b interRec) int { return strings.Compare(p.key(&a), p.key(&b)) })
	}
}

// sortSpecs are the comparators sortRuns runs under: the canonical key
// (sortKeyed), and ORDER BY lists with and without Desc (sortRun).
var sortSpecs = []*ReduceSpec{
	{Kind: ReduceAggregate},
	{Kind: ReduceSort, OrderBy: []pig.OrderKey{{Col: 0}}},
	{Kind: ReduceSort, OrderBy: []pig.OrderKey{{Col: 0, Desc: true}}},
	{Kind: ReduceSort, OrderBy: []pig.OrderKey{{Col: 0, Desc: true}, {Col: 1}}},
	{Kind: ReduceSort}, // bare LIMIT: arrival order
}

// sortKeyShapes give a record of data byte b its key and key values, each
// shape reaching a branch of sortKeyed: short integer keys; the empty key
// and NUL bytes; lengths 6 to 10 around one 7-byte prefix, where words
// tie and the rest of the key decides; a run whose keys all share a long
// prefix, some running past their word; whole-tuple DISTINCT keys.
var sortKeyShapes = []func(b byte) (string, tuple.Tuple){
	func(b byte) (string, tuple.Tuple) {
		k := int64(b % 8)
		return fmt.Sprint(k), tuple.Tuple{tuple.Int(k)}
	},
	func(b byte) (string, tuple.Tuple) {
		k := []string{"", "\x00", "\x00\x00", "a", "a\x00", "\x00a"}[b%6]
		return k, tuple.Tuple{tuple.Str(k)}
	},
	func(b byte) (string, tuple.Tuple) {
		k := []string{"abcdef", "abcdefg", "abcdefgh", "abcdefgi", "abcdefgh\x00", "abcdefghi", "abcdefgA", "abcdefgh\x00z"}[b%8]
		return k, tuple.Tuple{tuple.Str(k)}
	},
	func(b byte) (string, tuple.Tuple) {
		k := "shared/prefix/of/every/key/" + strings.Repeat("x", int(b>>5)) + fmt.Sprint(b%5)
		return k, tuple.Tuple{tuple.Str(k)}
	},
	func(b byte) (string, tuple.Tuple) {
		t := tuple.Tuple{tuple.Str(fmt.Sprintf("user%06d", b%4)), tuple.Int(int64(b>>4) % 3)}
		return string(tuple.AppendEncoded(nil, t)), t
	},
}

// sortFixture spreads one record per data byte over three partitions of
// different lengths, keyed by shape. Keys repeat heavily and every record
// carries its arrival position behind its key values, so two records never
// compare equal as wholes and any reordering of equal keys shows.
func sortFixture(data []byte, shape func(b byte) (string, tuple.Tuple)) []sortedRun {
	parts := make([][]testRec, 3)
	for i, b := range data {
		key, vals := shape(b)
		t := append(vals, tuple.Int(int64(i)))
		p := int(b>>3) % len(parts)
		parts[p] = append(parts[p], testRec{key: key, t: t, tag: int16(i % 2)})
	}
	return layOut(parts...)
}

// FuzzSortRunsMatchesStable holds sortRuns to the stable sort of the
// records themselves. mode picks the spec and, past the first
// len(sortSpecs), the key shape.
func FuzzSortRunsMatchesStable(f *testing.F) {
	for _, seed := range [][]byte{
		nil, {3}, {3, 3}, {9, 1, 9}, {7, 6, 5, 4, 3, 2, 1},
		[]byte("the quick brown fox jumps over the lazy dog and keeps on running"),
		make([]byte, 257),
	} {
		for mode := range sortSpecs {
			f.Add(seed, uint8(mode))
		}
	}
	ramp := make([]byte, 300)
	for i := range ramp {
		ramp[i] = byte(i * 7)
	}
	for shape := 1; shape < len(sortKeyShapes); shape++ {
		for _, seed := range [][]byte{[]byte("the quick brown fox jumps over the lazy dog"), make([]byte, 257), ramp} {
			for _, spec := range []int{0, 3} {
				f.Add(seed, uint8(shape*len(sortSpecs)+spec))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		spec := sortSpecs[int(mode)%len(sortSpecs)]
		shape := sortKeyShapes[int(mode)/len(sortSpecs)%len(sortKeyShapes)]
		got, want := sortFixture(data, shape), sortFixture(data, shape)
		sortRuns(got, spec, new(taskScratch))
		stableSortRuns(want, spec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("spec %+v over %d records:\n got %v\nwant %v", spec, len(data), got, want)
		}
	})
}

// freshChain is opChain as it was: a new tuple for every projection, an
// encode inside every digest writer.
type freshChain struct {
	ops     []Op
	writers []*digest.Writer
	passed  []int64
	digests int64
}

func newFreshChain(ops []Op, df digestFactory) *freshChain {
	c := &freshChain{ops: ops, writers: make([]*digest.Writer, len(ops)), passed: make([]int64, len(ops))}
	for i, op := range ops {
		if op.Kind == PhysDigest && df != nil {
			c.writers[i] = df(op.Point)
		}
	}
	return c
}

func (c *freshChain) apply(t tuple.Tuple) (tuple.Tuple, bool) {
	for i, op := range c.ops {
		switch op.Kind {
		case PhysFilter:
			if !op.Pred.Eval(t).Truthy() {
				return nil, false
			}
		case PhysProject:
			out := make(tuple.Tuple, len(op.Gens))
			for g, gen := range op.Gens {
				out[g] = gen.Expr.Eval(t)
			}
			t = out
		case PhysDigest:
			if c.writers[i] != nil {
				c.writers[i].Add(t)
				c.digests++
			}
		case PhysLimit:
			if c.passed[i] >= op.Limit {
				return nil, false
			}
			c.passed[i]++
		case PhysSample:
			if !sampleKeepHash(tuple.AppendCanonical(nil, t), op.Fraction) {
				return nil, false
			}
		}
	}
	return t, true
}

// freshReduce is runReduceTask as it was: a new tuple per joined pair, a
// new row per group, a new string per output record, and a new key tuple
// per group: a combined record's leading values, or an uncombined group's
// first row projected through the key columns. Its merge compares keys
// with strings.Compare, not by their words, and its join pairs every
// record of a key with every other, a side empty or not.
func freshReduce(job *JobSpec, runs []sortedRun, df digestFactory) (*reduceOutcome, []string) {
	spec, keyCols := job.Reduce, job.Inputs[0].KeyCols
	chain := newFreshChain(spec.PostOps, df)
	out := &reduceOutcome{}
	for _, r := range runs {
		out.recordsIn += int64(len(r.recs))
	}
	var lines []string
	emit := func(t tuple.Tuple) {
		if t, ok := chain.apply(t); ok {
			out.recordsOut++
			lines = append(lines, string(tuple.AppendEncoded(nil, t)))
		}
	}
	keyCmp := func(a, b recAt) int { return strings.Compare(a.key(), b.key()) }
	// Collect the merge into groups of equal key, then run each kind over
	// whole groups.
	var groups [][]testRec
	cmp := keyCmp
	if spec.Kind == ReduceSort {
		cmp = nil
		if len(spec.OrderBy) > 0 {
			cmp = func(a, b recAt) int { return orderCmp(a.tuple(), b.tuple(), spec.OrderBy) }
		}
	}
	mergeRuns(runs, false, cmp, func(at recAt) {
		r := testRec{key: at.key(), t: at.tuple(), tag: at.rec.tag}
		if n := len(groups); spec.Kind != ReduceSort && n > 0 && groups[n-1][0].key == r.key {
			groups[n-1] = append(groups[n-1], r)
			return
		}
		groups = append(groups, []testRec{r})
	}, new(taskScratch))
	for _, g := range groups {
		switch spec.Kind {
		case ReduceSort, ReduceDistinct:
			emit(g[0].t)
		case ReduceAggregate:
			aggIdx := aggOrdinals(spec.Gens)
			accs := make([]aggAcc, len(aggIdx))
			key := make(tuple.Tuple, len(keyCols))
			for i, c := range keyCols {
				if spec.Combine {
					key[i] = g[0].t[i]
				} else if c < len(g[0].t) {
					key[i] = g[0].t[c]
				}
			}
			for _, r := range g {
				for j, gi := range aggIdx {
					agg := spec.Gens[gi].Agg
					if spec.Combine {
						n, v := partialAcc(r.t[len(keyCols):], j)
						mergeAgg(agg, &accs[j], n, v)
					} else {
						mergeAgg(agg, &accs[j], 1, colOf(r.t, agg.ColIdx))
					}
				}
			}
			row := make(tuple.Tuple, len(spec.Gens))
			ai := 0
			for i, gen := range spec.Gens {
				if gen.Agg == nil {
					row[i] = gen.Expr.Eval(key)
					continue
				}
				row[i] = finalizeAgg(gen.Agg, accs[ai])
				ai++
			}
			emit(row)
		case ReduceJoin:
			for _, l := range g {
				for _, r := range g {
					if l.tag == 0 && r.tag != 0 {
						emit(append(slices.Clone(l.t), r.t...))
					}
				}
			}
		}
	}
	for _, w := range chain.writers {
		if w != nil {
			w.Close()
		}
	}
	out.digested = chain.digests
	return out, lines
}

// reuseScripts put digest, filter, digest, project, digest after each
// reduce kind: two digests sharing one encode, a projection between
// digests, and an output line taken from the last digest's bytes. The
// multi-column GROUP's key holds a string, and a column that most rows
// are too short to have: its group key is rebuilt, null where a row ends,
// from the rows uncombined and read as the prefix of the partials
// combined.
var reuseScripts = map[string]string{
	"join": `
a = LOAD 'in/l' AS (user:int, follower:int);
b = LOAD 'in/r' AS (user:int, follower:int);
j = JOIN a BY follower, b BY user;
f = FILTER j BY a::user != b::follower;
p = FOREACH f GENERATE a::user AS src, b::follower AS dst;
STORE p INTO 'out/p';`,
	"aggregate": `
a = LOAD 'in/l' AS (user:int, follower:int);
g = GROUP a BY user;
j = FOREACH g GENERATE group AS user, COUNT(a) AS n, MIN(a.follower) AS lo;
f = FILTER j BY n > 1;
p = FOREACH f GENERATE user, n * 2 AS twice, lo;
STORE p INTO 'out/p';`,
	"aggregate-multikey": `
a = LOAD 'in/l' AS (user:chararray, follower:int, tag);
g = GROUP a BY (tag, user);
j = FOREACH g GENERATE tag, user, COUNT(a) AS n, MAX(a.follower) AS hi;
f = FILTER j BY n > 1;
p = FOREACH f GENERATE user, tag, n * 2 AS twice, hi;
STORE p INTO 'out/p';`,
	"distinct": `
a = LOAD 'in/l' AS (user:int, follower:int);
j = DISTINCT a;
f = FILTER j BY user != follower;
p = FOREACH f GENERATE follower, user;
STORE p INTO 'out/p';`,
	"sort": `
a = LOAD 'in/l' AS (user:int, follower:int);
j = ORDER a BY follower DESC, user;
f = FILTER j BY user != follower;
p = FOREACH f GENERATE follower, user;
STORE p INTO 'out/p';`,
}

// combinedFromRaw is what a combining map task is to leave, made from the
// records the same split leaves uncombined: per partition, one record a
// key in key order, carrying the payload its records combine to — the
// first of them for DISTINCT, else the partial state they fold to — with
// the shuffle bytes of that payload alone. Held to it, the task's key
// values stay out of its byte accounting and its audit digest.
func combinedFromRaw(spec *ReduceSpec, raw *mapOutcome) *mapOutcome {
	aggIdx := aggOrdinals(spec.Gens)
	parts := make([][]testRec, len(raw.partitions))
	for p, part := range raw.partitions {
		var recs []testRec
		var accs [][]aggAcc
		for _, r := range readRun(part) { // runs are key-sorted, a key's records in arrival order
			if len(recs) == 0 || recs[len(recs)-1].key != r.key {
				recs = append(recs, r)
				accs = append(accs, make([]aggAcc, len(aggIdx)))
			}
			for j, gi := range aggIdx {
				agg := spec.Gens[gi].Agg
				mergeAgg(agg, &accs[len(accs)-1][j], 1, colOf(r.t, agg.ColIdx))
			}
		}
		if spec.Kind == ReduceAggregate {
			for i := range recs {
				recs[i].t = nil
				for _, a := range accs[i] {
					recs[i].t = append(recs[i].t, tuple.Int(a.n), a.v)
				}
			}
		}
		parts[p] = recs
	}
	out := &mapOutcome{partitions: layOut(parts...)}
	for _, part := range out.partitions {
		for i := range part.recs {
			r := &part.recs[i]
			r.encLen = int32(len(tuple.AppendEncoded(nil, part.tuple(r))))
			out.localBytes += r.bytes()
		}
	}
	return out
}

func TestReduceReuseMatchesFresh(t *testing.T) {
	lines := make([]string, 1500)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\t%d", i%40, (i*7919+13)%60)
		if i%3 == 0 { // ragged: a third of the rows have a third column
			lines[i] += fmt.Sprintf("\tT%d", i%4)
		}
	}
	for name, src := range reuseScripts {
		compileJob := func() *JobSpec {
			return compile(t, src, CompileOptions{NumReduces: 1, Points: digestPoints(t, plan(t, src), "j", "f", "p")})[0]
		}
		// A combinable kind is checked both ways: over partial-state runs
		// and over raw ones.
		jobs := []*JobSpec{compileJob()}
		if jobs[0].Reduce.Combine {
			jobs = append(jobs, uncombined(compileJob())[0])
		}
		for _, job := range jobs {
			var kinds []PhysKind
			for _, op := range job.Reduce.PostOps {
				kinds = append(kinds, op.Kind)
			}
			if want := []PhysKind{PhysDigest, PhysFilter, PhysDigest, PhysProject, PhysDigest}; !slices.Equal(kinds, want) {
				t.Fatalf("%s: PostOps = %v, want %v", name, kinds, want)
			}
			// Three map tasks per input, so the reduce merges several runs. A
			// combining task accounts and audits what its split would have
			// shuffled combined, reckoned from the records it would have
			// shuffled uncombined.
			var runs []sortedRun
			for idx := range job.Inputs {
				for s := 0; s < len(lines); s += 500 {
					out := runMapTask(job, idx, sealedBlock(t, lines), s, s+500, nil, nil, taskObs{}, new(taskScratch))
					runs = append(runs, out.partitions[0])
					if !job.Reduce.Combine {
						continue
					}
					raw := runMapTask(jobs[1], idx, sealedBlock(t, lines), s, s+500, nil, nil, taskObs{}, new(taskScratch))
					want := combinedFromRaw(job.Reduce, raw)
					if out.localBytes != want.localBytes {
						t.Errorf("%s: split %d: %d shuffle bytes combined, %d by its uncombined records", name, s, out.localBytes, want.localBytes)
					}
					if got, want := fmt.Sprint(auditMapSum(out, new(taskScratch))), fmt.Sprint(auditMapSum(want, new(taskScratch))); got != want {
						t.Errorf("%s: split %d: audit digest %s combined, %s by its uncombined records", name, s, got, want)
					}
				}
			}
			matchesFresh(t, fmt.Sprintf("%s combine=%v", name, job.Reduce.Combine), job, runs)
		}
	}
}

// matchesFresh runs job's reduce over runs at d = 0 and d = 100 and holds
// its outcome, its lines and its digest reports to freshReduce's.
func matchesFresh(t *testing.T, name string, job *JobSpec, runs []sortedRun) {
	t.Helper()
	for _, chunk := range []int{0, 100} {
		var got, want []digest.Report
		factory := func(sink *[]digest.Report) digestFactory {
			return func(point int) *digest.Writer {
				return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "r000"}, 0, chunk,
					func(r digest.Report) { *sink = append(*sink, r) })
			}
		}
		sc := new(taskScratch)
		g := runReduceTask(job, runs, factory(&got), taskObs{}, sc)
		gLines := staged(sc)
		w, wLines := freshReduce(job, runs, factory(&want))
		if len(wLines) == 0 || w.digested == 0 {
			t.Fatalf("%s: oracle produced %d lines, %d digested records", name, len(wLines), w.digested)
		}
		if !reflect.DeepEqual(g, w) || !slices.Equal(gLines, wLines) {
			t.Errorf("%s d=%d: outcome differs:\n got %+v, %d lines, %+v\nwant %+v, %d lines, %+v",
				name, chunk, *g, len(gLines), gLines[:min(3, len(gLines))],
				*w, len(wLines), wLines[:min(3, len(wLines))])
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s d=%d: digest reports differ: got %d, want %d", name, chunk, len(got), len(want))
		}
	}
}

// TestReduceTwoHopMatchesFresh: the two-hop query's reduce — the join, its
// filter and projection, a digest after each — over the skewed follower
// graph equals freshReduce's. The graph's keys cover every shape the
// join's flush tells apart: a key with left records only (a user who
// follows others and whom no one follows), one with right records only
// (followed, following no one), and a hot user with about two hundred
// right records.
func TestReduceTwoHopMatchesFresh(t *testing.T) {
	src := workload.TwoHopScript
	job := compile(t, src, CompileOptions{NumReduces: 1, Points: digestPoints(t, plan(t, src), "hops", "proper", "pairs")})[0]
	lines := workload.Twitter(2_000, 500, 1)
	in := sealedBlock(t, lines)
	var runs []sortedRun
	for idx := range job.Inputs {
		for s := 0; s < len(lines); s += 500 {
			runs = append(runs, runMapTask(job, idx, in, s, s+500, nil, nil, taskObs{}, new(taskScratch)).partitions[0])
		}
	}
	sides := joinSides(runs)
	leftOnly, rightOnly, hot := 0, 0, 0
	for _, n := range sides {
		switch {
		case n[1] == 0:
			leftOnly++
		case n[0] == 0:
			rightOnly++
		}
		hot = max(hot, n[1])
	}
	if leftOnly == 0 || rightOnly == 0 || hot < 100 {
		t.Fatalf("%d keys: %d left-only, %d right-only, at most %d right records a key; want some of each and a key with 100", len(sides), leftOnly, rightOnly, hot)
	}
	matchesFresh(t, "twohop", job, runs)
}

// joinSides counts each join key's left and right records over runs.
func joinSides(runs []sortedRun) map[string][2]int {
	sides := map[string][2]int{}
	for _, r := range runs {
		for _, rec := range readRun(r) {
			n := sides[rec.key]
			n[min(rec.tag, 1)]++
			sides[rec.key] = n
		}
	}
	return sides
}

// TestReduceJoinAllocs pins the reduce side of a join at a cost that
// does not grow with what it emits: 1,000 joined records cost the chain
// — not a concatenation, a projection and a line each; the group
// buffers, the merge's arrays and the output buffer are the scratch's.
func TestReduceJoinAllocs(t *testing.T) {
	src := reuseScripts["join"]
	job := compile(t, src, CompileOptions{NumReduces: 1, Points: digestPoints(t, plan(t, src), "j", "f", "p")})[0]
	// Ten keys, ten records a side each: 10 x 10 x 10 joined pairs, none
	// of which the filter drops.
	left, right := make([]string, 100), make([]string, 100)
	for i := range left {
		left[i] = fmt.Sprintf("%d\t%d", 1000+i, i%10)
		right[i] = fmt.Sprintf("%d\t%d", i%10, 2000+i)
	}
	runs := []sortedRun{
		runMapTask(job, 0, sealedBlock(t, left), 0, len(left), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
		runMapTask(job, 1, tailLines(t, right), 0, len(right), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
	}
	df := func(point int) *digest.Writer {
		return digest.NewWriter(digest.Key{Point: point}, 0, 0, func(digest.Report) {})
	}
	sc := new(taskScratch) // warm after the first run, as a slot's is
	out := runReduceTask(job, runs, df, taskObs{}, sc)
	if out.recordsOut != 1000 {
		t.Fatalf("join emitted %d records, want 1000", out.recordsOut)
	}
	out.publish(sc, nil)
	got := testing.AllocsPerRun(20, func() {
		runReduceTask(job, runs, df, taskObs{}, sc).publish(sc, nil)
	})
	if got >= 34 { // 18, and four for each of the three digest writers
		t.Errorf("reduce join = %v allocs per 1000 emitted records, want < 34", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil)
	}); got >= 22 {
		t.Errorf("reduce join without digests = %v allocs per 1000 emitted records, want < 22", got)
	}
}
