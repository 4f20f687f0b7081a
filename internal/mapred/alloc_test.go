package mapred

import (
	"testing"
	"unsafe"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/obs"
	"clusterbft/internal/tuple"
)

// Shuffle-path allocation pins: partitioning and sampling run once per
// shuffled record, so both must stay allocation-free (the inline FNV-1a
// loops replaced hash/fnv's heap-allocated states; the sample hash runs
// over a per-chain scratch buffer).

// TestRecordWidths pins what the data plane moves per record and per
// key: a shuffle record, a combiner entry and an aggregate's running
// state, each paid once per replica.
func TestRecordWidths(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, most uintptr
	}{
		{"interRec", unsafe.Sizeof(interRec{}), 48},
		{"combineEntry", unsafe.Sizeof(combineEntry{}), 48},
		{"aggAcc", unsafe.Sizeof(aggAcc{}), 40},
	} {
		if c.got > c.most {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.got, c.most)
		}
	}
}

func TestPartitionOfAllocs(t *testing.T) {
	got := testing.AllocsPerRun(200, func() {
		_ = partitionOf("1234\tsome-key", 16)
	})
	if got != 0 {
		t.Errorf("partitionOf allocs/record = %v, want 0", got)
	}
}

func TestSampleKeepHashAllocs(t *testing.T) {
	row := tuple.Tuple{tuple.Int(42), tuple.Str("payload"), tuple.Int(7)}
	scratch := make([]byte, 0, 128)
	got := testing.AllocsPerRun(200, func() {
		scratch = tuple.AppendCanonical(scratch[:0], row)
		_ = sampleKeepHash(scratch, 0.5)
	})
	if got != 0 {
		t.Errorf("sample path allocs/record = %v, want 0", got)
	}
}

// TestMapInnerLoopObsAllocs pins the disabled-observability contract on
// the map-task inner loop: running a split with the zero taskObs (nil
// counters, the default when no registry is attached) allocates exactly
// as much as running it with live counters — the hook itself costs no
// allocations either way, so per-task allocation counts stay governed by
// the data plane alone.
func TestMapInnerLoopObsAllocs(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	lines := make([]string, 512)
	for i := range lines {
		lines[i] = "12\t34"
	}
	src := sealedBlock(t, lines)
	measure := func(o taskObs) float64 {
		return testing.AllocsPerRun(20, func() {
			_ = runMapTask(job, 0, src, 0, len(lines), nil, nil, o, new(taskScratch))
		})
	}
	disabled := measure(taskObs{})
	r := obs.NewRegistry()
	enabled := measure(taskObs{
		mapRecords:     r.Counter("m"),
		shuffleRecords: r.Counter("s"),
		outRecords:     r.Counter("o"),
	})
	if disabled != enabled {
		t.Errorf("map inner-loop allocs: disabled=%v enabled=%v, want equal", disabled, enabled)
	}
}

// TestPartitionOfObsAllocs re-pins partitionOf now that the shuffle path
// runs under optional counters: the hot function itself takes no hook,
// and a surrounding nil counter touch stays free.
func TestPartitionOfObsAllocs(t *testing.T) {
	var c *obs.Counter
	got := testing.AllocsPerRun(200, func() {
		c.Inc()
		_ = partitionOf("1234\tsome-key", 16)
	})
	if got != 0 {
		t.Errorf("partitionOf+nil-counter allocs/record = %v, want 0", got)
	}
}

// TestSampleKeepHashMatchesWrapper: the scratch-buffer fast path and the
// allocate-per-call wrapper must agree on every verdict (replicas mixing
// the two would diverge on sampled subsets).
func TestSampleKeepHashMatchesWrapper(t *testing.T) {
	for i := 0; i < 500; i++ {
		row := tuple.Tuple{tuple.Int(int64(i)), tuple.Str("v")}
		canon := tuple.AppendCanonical(nil, row)
		for _, frac := range []float64{-1, 0, 0.3, 0.9, 1, 2} {
			if sampleKeep(row, frac) != sampleKeepHash(canon, frac) {
				t.Fatalf("sampleKeep disagreement at i=%d frac=%v", i, frac)
			}
		}
	}
}

// TestCombineFoldAllocs pins the combiner's steady-state cost: once a
// key has its table entry, folding another record with that key is
// allocation-free — the canonical encoding lands in the task's scratch
// buffer, and the probe compares stored keys against raw bytes without
// materializing a string or projecting a key tuple.
func TestCombineFoldAllocs(t *testing.T) {
	jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 4})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	if !job.Reduce.Combine {
		t.Fatal("follower job not marked combinable")
	}
	rows := make([]tuple.Tuple, 16)
	for i := range rows {
		rows[i] = tuple.Tuple{tuple.Int(int64(i)), tuple.Int(int64(i * 7))}
	}
	comb := newCombiner(job.Reduce, &job.Inputs[0], job.NumReduces, nil)
	scratch := make([]byte, 0, 64)
	var chain opChain        // its tuples are not source rows: the tuple path
	for _, r := range rows { // first sight: entries allocate here, not below
		scratch = comb.fold(r, &chain, scratch)
	}
	got := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			scratch = comb.fold(r, &chain, scratch)
		}
	})
	if got != 0 {
		t.Errorf("combiner fold allocs/batch = %v, want 0 on table hits", got)
	}
}

// TestResolveDetachedAllocs pins the disabled-observability contract on
// the per-attempt accounting: with no registry and no jobs board — how
// the timed runs execute — settling an attempt's CPU, committed, lost or
// hung, is the ledger update and nil-receiver no-ops.
func TestResolveDetachedAllocs(t *testing.T) {
	eng := NewEngine(dfs.New(), cluster.New(2, 1), nil, DefaultCostModel())
	if eng.Board != nil || eng.Registry() != nil {
		t.Fatal("a fresh engine attaches a store; the pin needs none")
	}
	js := &JobState{Spec: &JobSpec{ID: "x/r0/j0", SID: "run1-c0-a0", Replica: 1}}
	rt := &runningTask{task: js.newTask(MapTask, 0, 3), node: "node-000"}
	if got := testing.AllocsPerRun(200, func() {
		eng.resolve(rt, 800_004, attemptCommitted)
		eng.resolve(rt, 800_004, attemptLost)
		eng.resolve(rt, 800_004, attemptHung)
	}); got != 0 {
		t.Errorf("resolve with nothing attached allocates %v times per three attempts, want 0", got)
	}
	if b := eng.Ledger.Buckets(); b.CommittedUs == 0 || b.ReplicaWasteUs != 2*b.CommittedUs {
		t.Errorf("ledger after one committed and two lost attempts per round: %+v", b)
	}
}
