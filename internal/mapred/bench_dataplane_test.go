package mapred

// Micro-benchmarks for the per-record data plane: codec encode/decode,
// shuffle hashing (partition + sample), map-task execution, each reduce
// kind, and digest chunking. Every benchmark processes a fixed batch of
// records per iteration and reports allocations, so allocs/op is the
// per-batch allocation count. Compare revisions with -count=6 medians on
// one host; EXPERIMENTS.md records the trajectory, bench/ tracks the
// kernels worth tracking as per-layer metrics.

import (
	"fmt"
	"testing"

	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

const benchBatch = 1000

// benchEdgeLines generates benchBatch deterministic edge records shaped
// like the Twitter workload (user\tfollower, ~200 hot keys).
func benchEdgeLines() []string {
	lines := make([]string, benchBatch)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\t%d", i%200, (i*7919+13)%benchBatch)
	}
	return lines
}

func benchTuples() []tuple.Tuple {
	rows := make([]tuple.Tuple, benchBatch)
	for i := range rows {
		rows[i] = tuple.Tuple{
			tuple.Int(int64(i % 200)),
			tuple.Str(fmt.Sprintf("payload-col-%d", i)),
			tuple.Int(int64(i * 7)),
		}
	}
	return rows
}

func benchCompile(b *testing.B, src string, opts CompileOptions) []*JobSpec {
	b.Helper()
	p, err := pig.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := Compile(p, opts)
	if err != nil {
		b.Fatal(err)
	}
	return jobs
}

// benchShuffleRuns runs the map side of a compiled single-reduce job
// over deterministic input lines and returns the sorted runs feeding
// reduce partition 0, one per map task (NumReduces must be 1 so nothing
// is lost), plus the total record count.
func benchShuffleRuns(b *testing.B, job *JobSpec, inputs map[int][]string) ([][]interRec, int) {
	b.Helper()
	var runs [][]interRec
	total := 0
	for idx := range job.Inputs {
		out := runMapTask(job, idx, sealedBlock(b, inputs[idx]), 0, len(inputs[idx]), nil, nil, taskObs{}, new(taskScratch))
		for _, part := range out.partitions {
			runs = append(runs, part)
			total += len(part)
		}
	}
	return runs, total
}

func BenchmarkDataplaneCodecEncode(b *testing.B) {
	rows := benchTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			_ = tuple.EncodeLine(r)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneCanonicalAppend(b *testing.B) {
	rows := benchTuples()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			buf = tuple.AppendCanonical(buf[:0], r)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneCodecDecodePlain(b *testing.B) {
	lines := benchEdgeLines()
	schema := tuple.NewSchema("user", "follower")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dec tuple.Decoder // one per batch, as runMapTask has one per task
		for _, l := range lines {
			_ = dec.DecodeLine(l, schema)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneCodecDecodeEscaped(b *testing.B) {
	lines := make([]string, benchBatch)
	for i := range lines {
		lines[i] = tuple.EncodeLine(tuple.Tuple{
			tuple.Str(fmt.Sprintf("a\tb-%d", i)),
			tuple.Str("c\nd\\e"),
		})
	}
	var dec tuple.Decoder // the per-task decoder runMapTask uses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range lines {
			_ = dec.DecodeLine(l, nil)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

// benchBlockLines generates benchBatch three-column records shaped like
// the weather workload (hot station keys, small ints, short strings) —
// the regime the columnar block codec targets.
func benchBlockLines() []string {
	lines := make([]string, benchBatch)
	for i := range lines {
		lines[i] = fmt.Sprintf("station-%03d\t%d\tclear-%d", i%50, 20+i%7, i%3)
	}
	return lines
}

func BenchmarkDataplaneBlockEncode(b *testing.B) {
	lines := benchBlockLines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dfs.EncodeBlock(lines, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneBlockDecode(b *testing.B) {
	data := dfs.EncodeBlock(benchBlockLines(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfs.DecodeBlock(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneSpillRoundTrip drives the full out-of-core path per
// op: append the batch into a budgeted FS (sealing compressed blocks and
// spilling them to disk), then stream every record back.
func BenchmarkDataplaneSpillRoundTrip(b *testing.B) {
	lines := benchBlockLines()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.NewWith(dfs.Options{BlockSize: 4 << 10, MemBudget: 8 << 10, SpillDir: dir, Compress: true})
		for off := 0; off < len(lines); off += 100 {
			end := off + 100
			if end > len(lines) {
				end = len(lines)
			}
			fs.Append("bench/in", lines[off:end]...)
		}
		r, err := fs.OpenReader("bench/in")
		if err != nil {
			b.Fatal(err)
		}
		if n := len(r.ReadRange(0, r.NumRecords())); n != len(lines) {
			b.Fatalf("round-trip lost records: %d != %d", n, len(lines))
		}
		if err := fs.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplanePartitionOf(b *testing.B) {
	keys := make([]string, benchBatch)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i%200)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			_ = partitionOf(k, 16)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneSampleKeep(b *testing.B) {
	rows := benchTuples()
	var scratch []byte // the opChain's per-task scratch, modelled here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			scratch = tuple.AppendCanonical(scratch[:0], r)
			_ = sampleKeepHash(scratch, 0.5)
		}
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneMapTaskShuffle is the full uncombined map hot path
// of the follower job: decode, filter, key extraction, partitioning,
// run sort.
func BenchmarkDataplaneMapTaskShuffle(b *testing.B) {
	job := uncombined(benchCompile(b, followerSrc, CompileOptions{NumReduces: 4})...)[0]
	lines := benchEdgeLines()
	src := sealedBlock(b, lines)
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMapTask(job, 0, src, 0, len(lines), nil, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneSortRuns sorts one 10,000-record partition of 2,500
// distinct keys, four records a key in arrival order — the shape a
// non-combining map task hands sortRuns. Each op sorts a fresh copy, on a
// scratch warm from the first op on, as a slot's is. Two key shapes: a
// join's short integer keys, which the radix sorts alone, and DISTINCT's
// whole-tuple keys, whose words (the seven bytes past what every key
// shares) take four values, so that the comparator finishes every
// record — the fall-back's cost.
func BenchmarkDataplaneSortRuns(b *testing.B) {
	const records, distinct = 10_000, 2_500
	for _, shape := range []struct {
		name string
		spec *ReduceSpec
		key  func(k int64) tuple.Tuple
	}{
		{"join", &ReduceSpec{Kind: ReduceJoin}, func(k int64) tuple.Tuple { return tuple.Tuple{tuple.Int(k)} }},
		{"distinct-long", &ReduceSpec{Kind: ReduceDistinct}, func(k int64) tuple.Tuple {
			return tuple.Tuple{tuple.Str(fmt.Sprintf("region-%d/station", k%4)), tuple.Int(k), tuple.Int(k % 7)}
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			recs := make([]interRec, records)
			for i := range recs {
				k := int64(i*7919+13) % distinct
				t := append(shape.key(k), tuple.Int(int64(i)))
				key := tuple.AppendEncoded(nil, t[:len(t)-1])
				recs[i] = interRec{keyStr: string(key), t: t, encLen: int32(tuple.EncodedLen(t))}
			}
			work := make([]interRec, records)
			sc := new(taskScratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, recs)
				sortRuns([][]interRec{work}, shape.spec, sc)
			}
			b.ReportMetric(records, "records/op")
		})
	}
}

// benchHotKeyLines generates benchBatch edge records over 16 distinct
// keys — the combiner's target regime, where shuffle volume collapses
// from O(records) to O(keys).
func benchHotKeyLines() []string {
	lines := make([]string, benchBatch)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d\t%d", i%16, (i*7919+13)%benchBatch)
	}
	return lines
}

// BenchmarkDataplaneMapTaskCombine is the combining map hot path of the
// follower job at 16 distinct keys: decode, filter, digest-free chain,
// combiner fold, partial emit, run sort.
func BenchmarkDataplaneMapTaskCombine(b *testing.B) {
	job := benchCompile(b, followerSrc, CompileOptions{NumReduces: 4})[0]
	lines := benchHotKeyLines()
	src := sealedBlock(b, lines)
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMapTask(job, 0, src, 0, len(lines), nil, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneMapTaskCombineOff is the same workload with the
// combiner disabled, the baseline for the shuffle-volume comparison.
func BenchmarkDataplaneMapTaskCombineOff(b *testing.B) {
	job := uncombined(benchCompile(b, followerSrc, CompileOptions{NumReduces: 4})...)[0]
	lines := benchHotKeyLines()
	src := sealedBlock(b, lines)
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMapTask(job, 0, src, 0, len(lines), nil, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneMapTaskMapOnly exercises the map-only output path
// (decode, filter, project, encode).
func BenchmarkDataplaneMapTaskMapOnly(b *testing.B) {
	job := benchCompile(b, `
a = LOAD 'in/edges' AS (user:int, follower:int);
f = FILTER a BY follower != 0;
p = FOREACH f GENERATE user, user * follower AS prod;
STORE p INTO 'out/prod';
`, CompileOptions{})[0]
	lines := benchEdgeLines()
	src := sealedBlock(b, lines)
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runMapTask(job, 0, src, 0, len(lines), nil, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneReduceAggregate(b *testing.B) {
	job := uncombined(benchCompile(b, followerSrc, CompileOptions{NumReduces: 1})...)[0]
	runs, total := benchShuffleRuns(b, job, map[int][]string{0: benchEdgeLines()})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(float64(total), "records/op")
}

// BenchmarkDataplaneReduceMergeSorted merges combined partial-state
// runs — the reduce side of the combining path at 16 distinct keys.
// Input records per op are the map batch, so throughput is comparable
// against ReduceMergeSortedOff, which merges the uncombined runs of the
// same map batch.
func BenchmarkDataplaneReduceMergeSorted(b *testing.B) {
	job := benchCompile(b, followerSrc, CompileOptions{NumReduces: 1})[0]
	runs, _ := benchShuffleRuns(b, job, map[int][]string{0: benchHotKeyLines()})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneReduceMergeSortedOff(b *testing.B) {
	job := uncombined(benchCompile(b, followerSrc, CompileOptions{NumReduces: 1})...)[0]
	runs, _ := benchShuffleRuns(b, job, map[int][]string{0: benchHotKeyLines()})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(benchBatch, "records/op")
}

func BenchmarkDataplaneReduceJoin(b *testing.B) {
	job := benchCompile(b, `
a = LOAD 'in/left' AS (user:int, follower:int);
b = LOAD 'in/right' AS (user:int, follower:int);
j = JOIN a BY follower, b BY user;
STORE j INTO 'out/joined';
`, CompileOptions{NumReduces: 1})[0]
	runs, total := benchShuffleRuns(b, job, map[int][]string{
		0: benchEdgeLines(),
		1: benchEdgeLines(),
	})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(float64(total), "records/op")
}

func BenchmarkDataplaneReduceDistinct(b *testing.B) {
	job := uncombined(benchCompile(b, `
a = LOAD 'in/edges' AS (user:int, follower:int);
d = DISTINCT a;
STORE d INTO 'out/distinct';
`, CompileOptions{NumReduces: 1})...)[0]
	runs, total := benchShuffleRuns(b, job, map[int][]string{0: benchEdgeLines()})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(float64(total), "records/op")
}

func BenchmarkDataplaneReduceSort(b *testing.B) {
	job := benchCompile(b, `
a = LOAD 'in/edges' AS (user:int, follower:int);
o = ORDER a BY follower DESC, user;
STORE o INTO 'out/sorted';
`, CompileOptions{NumReduces: 1})[0]
	runs, total := benchShuffleRuns(b, job, map[int][]string{0: benchEdgeLines()})
	sc := new(taskScratch) // warm from the first op on, as a slot's is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runReduceTask(job, runs, nil, taskObs{}, sc).publish(sc, nil, false)
	}
	b.ReportMetric(float64(total), "records/op")
}

// BenchmarkDataplaneDigestChunked streams the batch through a chunked
// digest writer (d=100), the §6.4 verification hot path.
func BenchmarkDataplaneDigestChunked(b *testing.B) {
	rows := benchTuples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := digest.NewWriter(digest.Key{SID: "s0", Point: 1, Task: "m000"}, 0, 100, func(digest.Report) {})
		for _, r := range rows {
			w.Add(r)
		}
		w.Close()
	}
	b.ReportMetric(benchBatch, "records/op")
}

// BenchmarkDataplaneCheckpointWrite measures persisting one verified
// interior job's retained output lines under a durable ckpt/ path — the
// controller's checkpoint-save hot path (delete any stale file, then
// append the agreed lines). This is the write overhead a fault-free run
// pays per checkpointed job for checkpoint-granular recovery.
func BenchmarkDataplaneCheckpointWrite(b *testing.B) {
	lines := benchEdgeLines()
	fs := dfs.New()
	defer fs.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fs.Delete("ckpt/run1/c0/j01")
		fs.Append("ckpt/run1/c0/j01", lines...)
	}
	b.ReportMetric(benchBatch, "records/op")
}
