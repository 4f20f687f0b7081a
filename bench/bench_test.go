package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// All tests share one small run of the five workloads: 2 % of the fixed
// sizes, one iteration per round, both passes.
var (
	smallOnce     sync.Once
	smallSessions []*session
	smallErr      error
	smallDir      string
)

func smallRun(t *testing.T) []*session {
	t.Helper()
	smallOnce.Do(func() {
		smallDir, smallErr = os.MkdirTemp("", "bench-test-")
		if smallErr != nil {
			return
		}
		smallSessions, smallErr = measureAll(specs(), options{seed: 1, pct: 2, outDir: smallDir}, 1e-6, "both")
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallSessions
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smallDir != "" {
		os.RemoveAll(smallDir)
	}
	os.Exit(code)
}

func TestEveryMetricIsMeasured(t *testing.T) {
	for _, s := range smallRun(t) {
		w := s.report("both")
		if w.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		check := func(defs []metric, vals values) {
			for _, d := range defs {
				v, ok := vals[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", w.Name, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		check(reported, w.EndToEnd)
		check(perLayer, w.PerLayer)
		for _, d := range endToEnd {
			if w.EndToEnd[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, w.EndToEnd[d.Name].Value)
			}
		}
		sum := 0.0
		for _, l := range ledgerLayers {
			sum += w.PerLayer["cpu_share."+l].Value
		}
		// A 2 % op can finish between two 100 Hz samples; then every
		// share is 0.
		if sum != 0 && math.Abs(sum-100) > 1e-6 {
			t.Errorf("%s: cpu_share.* sums to %v, want 100", w.Name, sum)
		}
	}
}

// The recovery path must not depend on the input scale: the small run
// sees the same detection and retries the full-size one does.
func TestByzantineWorkloadRecovers(t *testing.T) {
	for _, s := range smallRun(t) {
		if s.sp.name != "airline_byzantine" {
			continue
		}
		if got := s.layers["core.attempts"].Value; got < 3 {
			t.Errorf("core.attempts = %v, want at least 3", got)
		}
		if got := s.layers["core.faulty_replicas"].Value; got < 1 {
			t.Errorf("core.faulty_replicas = %v, want at least 1", got)
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	first := smallRun(t)
	again, err := measureAll(specs(), options{seed: 1, pct: 2, outDir: smallDir}, 1e-6, "0")
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range first {
		b := again[i]
		if a.assuredVirtUs != b.assuredVirtUs || a.virtCPUUs != b.virtCPUUs || a.plainVirtUs != b.plainVirtUs {
			t.Errorf("%s: virtual times differ between two runs of one seed: %d/%d/%d vs %d/%d/%d", a.sp.name,
				a.assuredVirtUs, a.virtCPUUs, a.plainVirtUs, b.assuredVirtUs, b.virtCPUUs, b.plainVirtUs)
		}
		ma, mb := median(a.mallocs), median(b.mallocs)
		if math.Abs(ma-mb) > 0.01*ma {
			t.Errorf("%s: allocs_per_op %v vs %v, more than 1%% apart", a.sp.name, ma, mb)
		}
		other := a.sp.generate(2, 2)
		if slices.Equal(other.lines, a.in.lines) {
			t.Errorf("%s: seeds 1 and 2 generate the same input", a.sp.name)
		}
		if same := a.sp.generate(1, 2); !slices.Equal(same.lines, a.in.lines) {
			t.Errorf("%s: seed 1 generates two different inputs", a.sp.name)
		}
	}
}

func TestReseedReordersOnly(t *testing.T) {
	draw := []string{"1\t2", "3\t4", "5\t6", "7\t8", "9\t10", "11\t12"}
	a, b := reseed(draw, 1), reseed(draw, 2)
	if slices.Equal(a, b) || slices.Equal(a, draw) && slices.Equal(b, draw) {
		t.Errorf("seeds do not reorder: %v %v", a, b)
	}
	for _, got := range [][]string{a, b} {
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		want := slices.Clone(draw)
		slices.Sort(want)
		if !slices.Equal(sorted, want) {
			t.Errorf("reseed changed the records: %v", got)
		}
	}
}

func TestDriverLine(t *testing.T) {
	s := smallRun(t)[0]
	for trace, defs := range map[string][]metric{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		if err := driverLine(&out, s, trace); err != nil {
			t.Fatal(err)
		}
		b := out.Bytes()
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: %v in %s", trace, err, b)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: bad header in %s", trace, b)
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or without unit %q", trace, d.Name, d.Unit)
			}
		}
	}
}

// BENCHMARK.json repeats the metric and workload tables for the driver;
// the program's tables are the source.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bj.Paths, []string{"bench"}) || !slices.Equal(bj.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !slices.Equal(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	sps := specs()
	if len(bj.Workloads) != len(sps) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(sps))
	}
	for i, sp := range sps {
		if bj.Workloads[i].Name != sp.name || bj.Workloads[i].Why != sp.why {
			t.Errorf("workload %d is %q, want %q with the spec's why", i, bj.Workloads[i].Name, sp.name)
		}
		if len(sp.why) > 200 || strings.ContainsAny(sp.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate, or name or unit %q too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}

func TestLedgerAttribution(t *testing.T) {
	stacks := []struct {
		stack []string // leaf first, as in a profile
		want  string
	}{
		{[]string{"runtime.mallocgc", "clusterbft/internal/mapred.(*Engine).mapBody.func1", "clusterbft/internal/pool.Go[...].func1"}, "mapred"},
		{[]string{"crypto/sha256.block", "clusterbft/internal/digest.(*Writer).Add", "clusterbft/internal/mapred.runMapTask"}, "digest"},
		{[]string{"runtime.mapaccess2_faststr", "clusterbft/internal/core.(*Matcher).KeyDeviants", "clusterbft/internal/core.(*Controller).onDigest", "main.(*spec).runAssured.func1"}, "core"},
		{[]string{"compress/flate.(*compressor).deflate", "clusterbft/internal/dfs.encodeBlockStats", "clusterbft/internal/dfs.(*FS).Append"}, "dfs"},
		{[]string{"clusterbft/internal/obs/introspect.(*Server).serve"}, "obs"},
		{[]string{"clusterbft/internal/workload.Twitter", "main.(*spec).generate"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, "other"},
		{[]string{"main.(*expected).matches"}, "other"},
		{nil, "other"},
	}
	ledger := make(cpuLedger)
	for _, c := range stacks {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
		ledger.add([]stackSample{{stack: c.stack, nanos: 10}})
	}
	shares := ledger.shares()
	if len(shares) != len(ledgerLayers) {
		t.Errorf("%d shares, want one per layer (%d)", len(shares), len(ledgerLayers))
	}
	if shares["other"] != 40 || shares["mapred"] != 10 || shares["pig"] != 0 {
		t.Errorf("shares %v", shares)
	}
}

// The ledger reads profiles the runtime writes; this one is real.
func TestParseProfile(t *testing.T) {
	p := &profiler{ledger: make(cpuLedger)}
	p.start()
	sp := specs()[0]
	in := sp.generate(1, 20)
	for i := 0; i < 3; i++ {
		if _, err := sp.runPlain(in, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	p.stop()
	if p.err != nil {
		t.Fatal(p.err)
	}
	if len(p.raw) != 1 {
		t.Fatalf("%d raw profiles, want 1", len(p.raw))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
	// Samples are not guaranteed on a fast host, but frames are named
	// whenever there are any.
	samples, err := parseProfile(p.raw[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			t.Errorf("sample without frames or time: %+v", s)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lo := metric{Name: "m", Better: lower, Bound: 0.10}
	hi := metric{Name: "m", Better: higher, Bound: 0.10}
	v := func(x float64) value { return value{Value: x} }
	cases := []struct {
		d          metric
		base, next float64
		spread     float64
		want       string
	}{
		{lo, 100, 105, 0.02, unchanged},
		{lo, 100, 111, 0.02, regressed},
		{lo, 100, 89, 0.02, improved},
		{lo, 100, 105, 0.12, unresolved},
		{lo, 100, 120, 0.12, regressed},
		{hi, 100, 89, 0.02, regressed},
		{hi, 100, 111, 0.02, improved},
		{metric{Name: "failed_op_pct", Better: lower}, 0, 0, 0, unchanged},
		{metric{Name: "failed_op_pct", Better: lower}, 0, 1, 0, regressed},
	}
	for _, c := range cases {
		if got := judge(c.d, v(c.base), v(c.next), c.spread); got != c.want {
			t.Errorf("judge(%s %v -> %v, spread %v) = %s, want %s", c.d.Better, c.base, c.next, c.spread, got, c.want)
		}
	}
}

func TestReferenceMultisetCompare(t *testing.T) {
	e := newExpected([]string{"a\t1", "a\t1", "b\t2"}, false)
	if err := e.matches([]string{"b\t2", "a\t1", "a\t1"}); err != nil {
		t.Errorf("reordered output rejected: %v", err)
	}
	for _, bad := range [][]string{
		{"a\t1", "b\t2"},
		{"a\t1", "b\t2", "b\t2"},
		{"a\t1", "a\t1", "c\t2"},
	} {
		if e.matches(bad) == nil {
			t.Errorf("output %v accepted", bad)
		}
	}
	byCount := newExpected([]string{"ATL\t9", "ORD\t7"}, true)
	if err := byCount.matches([]string{"DFW\t7", "ATL\t9"}); err != nil {
		t.Errorf("tie on the count column rejected: %v", err)
	}
	if byCount.matches([]string{"ATL\t9", "ORD\t8"}) == nil {
		t.Error("wrong count accepted")
	}
}
