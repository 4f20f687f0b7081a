package mapred

import (
	"reflect"
	"strings"
	"testing"

	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/pig"
)

// The compute-eager / commit-deterministic contract: every virtual-time
// observable — job latency, metrics counters, output bytes, digest
// report stream — is byte-identical whatever the worker pool size,
// because bodies only read state fixed at dispatch and their effects
// commit in virtual-time order.

type poolSnap struct {
	latency int64
	metrics Metrics
	out     []string
	reports []digest.Report
	store   [4]int64 // spilled blocks and bytes, stored/raw, resident high-water
}

func runWithWorkers(t *testing.T, workers int, storage dfs.Options) poolSnap {
	t.Helper()
	p, err := pig.Parse(followerSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := CompileOptions{Points: digestPoints(t, p, "counts"), NumReduces: 3}
	in := map[string][]string{"in/edges": geomEdges(12000)}
	fs := dfs.NewWith(storage)
	defer fs.Close()
	tr := runOn(t, fs, followerSrc, in, opts, func(e *Engine) {
		e.Workers = workers
		e.Speculation = true
	})
	js := tr.eng.Job(tr.jobs[0].ID)
	if !js.Done {
		t.Fatalf("workers=%d: job incomplete", workers)
	}
	return poolSnap{
		latency: js.DoneTime - js.SubmitTime,
		metrics: tr.eng.Metrics,
		out:     tr.output(t, "out/counts"),
		reports: tr.reports,
		store:   [4]int64{fs.SpilledBlocks(), fs.SpillBytes(), fs.CompressedRatio(), fs.MaxResidentBytes()},
	}
}

// The second leg seals every reduce's output into compressed blocks, in
// the reduce bodies, several at once on the pooled deflaters, and spills.
func TestWorkerPoolSizesProduceIdenticalResults(t *testing.T) {
	for _, leg := range []struct {
		storage dfs.Options
		workers []int
	}{
		{dfs.Options{}, []int{2, 4, 8, 0}},
		{dfs.Options{BlockSize: 128, MemBudget: 4 << 10, SpillDir: t.TempDir(), Compress: true}, []int{2, 8}},
	} {
		base := runWithWorkers(t, 1, leg.storage)
		if len(base.out) == 0 || len(base.reports) == 0 {
			t.Fatal("reference run produced no output or digests")
		}
		if leg.storage.Compress && base.store[0] == 0 {
			t.Fatal("reference run spilled nothing")
		}
		for _, w := range leg.workers {
			got := runWithWorkers(t, w, leg.storage)
			if got.latency != base.latency {
				t.Errorf("%+v workers=%d: latency %d != %d", leg.storage, w, got.latency, base.latency)
			}
			if got.metrics != base.metrics {
				t.Errorf("%+v workers=%d: metrics differ:\n%+v\n%+v", leg.storage, w, got.metrics, base.metrics)
			}
			if !reflect.DeepEqual(got.out, base.out) {
				t.Errorf("%+v workers=%d: output bytes differ", leg.storage, w)
			}
			if !reflect.DeepEqual(got.reports, base.reports) {
				t.Errorf("%+v workers=%d: digest report stream differs", leg.storage, w)
			}
			if got.store != base.store {
				t.Errorf("%+v workers=%d: store counters %v != %v", leg.storage, w, got.store, base.store)
			}
		}
	}
}

func TestWorkerPoolWithFaultsStaysDeterministic(t *testing.T) {
	// Fault draws happen at dispatch on the simulation goroutine, so a
	// commission + straggler mix must also be pool-size invariant.
	runFaulty := func(workers int) (Metrics, []digest.Report) {
		fs := dfs.NewWith(dfs.Options{})
		fs.Append("in/edges", geomEdges(9000)...)
		jobs, err := compileHelper(followerSrc, CompileOptions{NumReduces: 2})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(fs, cluster.New(5, 2), nil, DefaultCostModel())
		eng.Workers = workers
		eng.Speculation = true
		if err := eng.Cluster.SetAdversary("node-001", cluster.FaultCommission, 1.0, 11); err != nil {
			t.Fatal(err)
		}
		adv := cluster.NewAdversary(cluster.FaultSlow, 1.0, 5)
		adv.SlowFactor = 20
		eng.Cluster.Nodes()[3].Adversary = adv
		var reports []digest.Report
		eng.DigestSink = func(r digest.Report) { reports = append(reports, r) }
		if _, err := eng.Submit(jobs[0]); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return eng.Metrics, reports
	}
	// One worker runs every body on one scratch in dispatch order, eight
	// run them on eight in whatever order the slots free up.
	m1, r1 := runFaulty(1)
	for _, w := range []int{2, 8} {
		m, r := runFaulty(w)
		if m != m1 {
			t.Errorf("workers=%d: metrics differ from one worker's under faults:\n%+v\n%+v", w, m, m1)
		}
		if !reflect.DeepEqual(r, r1) {
			t.Errorf("workers=%d: digest stream differs from one worker's under faults", w)
		}
	}
}

// splitHome regression: placement must be deterministic, in-range, and
// free of the signed-overflow hazard the old hand-rolled hash had.

func TestSplitHomeDeterministicAndInRange(t *testing.T) {
	mk := func() *Engine {
		return NewEngine(dfs.NewWith(dfs.Options{}), cluster.New(7, 2), nil, DefaultCostModel())
	}
	a, b := mk(), mk()
	valid := map[cluster.NodeID]bool{}
	for _, n := range a.Cluster.Nodes() {
		valid[n.ID] = true
	}
	paths := []string{
		"",
		"in/edges",
		"x/run0-c0-a0/r1/out/counts",
		strings.Repeat("\xff", 64), // high bytes drove the old hash negative
		strings.Repeat("z", 300),
	}
	for _, p := range paths {
		for split := 0; split < 40; split++ {
			h := a.splitHome(p, split)
			if !valid[h] {
				t.Fatalf("splitHome(%q, %d) = %q not a cluster node", p, split, h)
			}
			if h != b.splitHome(p, split) {
				t.Fatalf("splitHome(%q, %d) differs across engines", p, split)
			}
		}
	}
	// Splits of one file must spread over the cluster, not pile onto a
	// single node (locality schedulers would serialize the job).
	seen := map[cluster.NodeID]bool{}
	for split := 0; split < 40; split++ {
		seen[a.splitHome("in/edges", split)] = true
	}
	if len(seen) < 3 {
		t.Errorf("40 splits landed on only %d node(s)", len(seen))
	}
	// Empty cluster degrades to the empty ID instead of dividing by zero.
	if got := NewEngine(dfs.NewWith(dfs.Options{}), cluster.New(0, 0), nil, DefaultCostModel()).splitHome("p", 0); got != "" {
		t.Errorf("empty cluster splitHome = %q, want \"\"", got)
	}
}
