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
)

// stableSortRuns is sortRuns as it was: a stable sort moving the records
// themselves.
func stableSortRuns(parts [][]interRec, spec *ReduceSpec) {
	if spec.Kind == ReduceSort {
		if len(spec.OrderBy) == 0 {
			return
		}
		for _, p := range parts {
			slices.SortStableFunc(p, func(a, b interRec) int { return orderCmp(a.t, b.t, spec.OrderBy) })
		}
		return
	}
	for _, p := range parts {
		slices.SortStableFunc(p, func(a, b interRec) int { return strings.Compare(a.keyStr, b.keyStr) })
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
func sortFixture(data []byte, shape func(b byte) (string, tuple.Tuple)) [][]interRec {
	parts := make([][]interRec, 3)
	for i, b := range data {
		key, vals := shape(b)
		t := append(vals, tuple.Int(int64(i)))
		p := int(b>>3) % len(parts)
		parts[p] = append(parts[p], interRec{
			keyStr: key, t: t, tag: int32(i % 2), encLen: int32(tuple.EncodedLen(t)),
		})
	}
	return parts
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
			if !sampleKeep(t, op.Fraction) {
				return nil, false
			}
		}
	}
	return t, true
}

// freshReduce is runReduceTask as it was: tuple.Concat per joined pair, a
// new row per group, EncodeLine per output record, and a new key tuple
// per group: a combined record's leading values, or an uncombined group's
// first row projected through the key columns.
func freshReduce(job *JobSpec, runs [][]interRec, df digestFactory) *reduceOutcome {
	spec, keyCols := job.Reduce, job.Inputs[0].KeyCols
	chain := newFreshChain(spec.PostOps, df)
	out := &reduceOutcome{}
	for _, r := range runs {
		out.recordsIn += int64(len(r))
	}
	emit := func(t tuple.Tuple) {
		if t, ok := chain.apply(t); ok {
			out.recordsOut++
			out.outLines = append(out.outLines, tuple.EncodeLine(t))
		}
	}
	keyCmp := func(a, b *interRec) int { return strings.Compare(a.keyStr, b.keyStr) }
	// Collect the merge into groups of equal key, then run each kind over
	// whole groups.
	var groups [][]*interRec
	cmp := keyCmp
	if spec.Kind == ReduceSort {
		cmp = nil
		if len(spec.OrderBy) > 0 {
			cmp = func(a, b *interRec) int { return orderCmp(a.t, b.t, spec.OrderBy) }
		}
	}
	mergeRuns(runs, cmp, func(r *interRec) {
		if n := len(groups); spec.Kind != ReduceSort && n > 0 && groups[n-1][0].keyStr == r.keyStr {
			groups[n-1] = append(groups[n-1], r)
			return
		}
		groups = append(groups, []*interRec{r})
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
						emit(tuple.Concat(l.t, r.t))
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
	return out
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
	out := &mapOutcome{partitions: make([][]interRec, len(raw.partitions))}
	for p, part := range raw.partitions {
		var recs []interRec
		var accs [][]aggAcc
		for _, r := range part { // runs are key-sorted, a key's records in arrival order
			if len(recs) == 0 || recs[len(recs)-1].keyStr != r.keyStr {
				recs = append(recs, interRec{keyStr: r.keyStr, t: r.t, tag: r.tag})
				accs = append(accs, make([]aggAcc, len(aggIdx)))
			}
			for j, gi := range aggIdx {
				agg := spec.Gens[gi].Agg
				mergeAgg(agg, &accs[len(accs)-1][j], 1, colOf(r.t, agg.ColIdx))
			}
		}
		for i := range recs {
			r := &recs[i]
			if spec.Kind == ReduceAggregate {
				r.t = nil
				for _, a := range accs[i] {
					r.t = append(r.t, tuple.Int(a.n), a.v)
				}
			}
			r.encLen = int32(len(tuple.EncodeLine(r.t)))
			out.localBytes += r.bytes()
		}
		out.partitions[p] = recs
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
			var runs [][]interRec
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
					if got, want := fmt.Sprint(auditMapSum(out)), fmt.Sprint(auditMapSum(want)); got != want {
						t.Errorf("%s: split %d: audit digest %s combined, %s by its uncombined records", name, s, got, want)
					}
				}
			}
			for _, chunk := range []int{0, 100} {
				var got, want []digest.Report
				factory := func(sink *[]digest.Report) digestFactory {
					return func(point int) *digest.Writer {
						return digest.NewWriter(digest.Key{SID: "s", Point: point, Task: "r000"}, 0, chunk,
							func(r digest.Report) { *sink = append(*sink, r) })
					}
				}
				g := runReduceTask(job, runs, factory(&got), taskObs{}, new(taskScratch))
				w := freshReduce(job, runs, factory(&want))
				if len(w.outLines) == 0 || w.digested == 0 {
					t.Fatalf("%s: oracle produced %d lines, %d digested records", name, len(w.outLines), w.digested)
				}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s combine=%v d=%d: outcome differs:\n got %d lines, %+v\nwant %d lines, %+v",
						name, job.Reduce.Combine, chunk, len(g.outLines), g.outLines[:min(3, len(g.outLines))],
						len(w.outLines), w.outLines[:min(3, len(w.outLines))])
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s combine=%v d=%d: digest reports differ: got %d, want %d", name, job.Reduce.Combine, chunk, len(got), len(want))
				}
			}
		}
	}
}

// TestReduceJoinAllocs pins the reduce side of a join at a cost that
// does not grow with what it emits: 1,000 joined records cost the chain
// and the line arena's chunks — not a concatenation, a projection and a
// line each; the group buffers, the merge's arrays and the output lines
// are the scratch's.
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
	runs := [][]interRec{
		runMapTask(job, 0, sealedBlock(t, left), 0, len(left), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
		runMapTask(job, 1, heldLines(t, right), 0, len(right), nil, nil, taskObs{}, new(taskScratch)).partitions[0],
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
