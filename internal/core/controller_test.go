package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
	"clusterbft/internal/verify"
)

const weatherScript = `
w = LOAD 'data/weather' AS (st, temp:int);
g1 = GROUP w BY st;
avgs = FOREACH g1 GENERATE group AS st, AVG(w.temp) AS a;
g2 = GROUP avgs BY a;
counts = FOREACH g2 GENERATE group AS a, COUNT(avgs) AS n;
STORE counts INTO 'out/counts';
`

func weatherData(n int) []string {
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("st%02d\t%d", i%10, (i*37)%40))
	}
	return lines
}

type harness struct{ *System }

// newRig is the un-Assured half of newHarness, for tests that plant
// adversaries or engine settings before the control tier goes on.
func newRig(nodes, slots int) *harness {
	sys := NewSystem(nodes, slots, dfs.Options{}, mapred.DefaultCostModel())
	sys.FS.Append("data/weather", weatherData(2000)...)
	return &harness{sys}
}

func newHarness(t *testing.T, nodes, slots int, cfg Config) *harness {
	t.Helper()
	h := newRig(nodes, slots)
	h.Assure(cfg)
	return h
}

func (h *harness) outputLines(t *testing.T, res *Result, store string) []string {
	t.Helper()
	path, ok := res.Outputs[store]
	if !ok {
		t.Fatalf("no output mapping for %q: %v", store, res.Outputs)
	}
	lines, err := h.FS.ReadTree(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	sort.Strings(lines)
	return lines
}

func TestControllerHonestRun(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run not verified")
	}
	if res.Clusters < 2 {
		t.Errorf("expected >= 2 sub-graphs with 2 points, got %d", res.Clusters)
	}
	if res.Attempts != res.Clusters {
		t.Errorf("honest run should need exactly one attempt per cluster: %d vs %d", res.Attempts, res.Clusters)
	}
	if res.FaultyReplicas != 0 || len(res.Suspects) != 0 {
		t.Errorf("no faults expected: %+v", res)
	}
	if res.LatencyUs <= 0 {
		t.Error("latency not measured")
	}
	if len(h.outputLines(t, res, "out/counts")) == 0 {
		t.Error("no output records")
	}
}

func TestControllerOutputMatchesPlainRun(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	bftOut := h.outputLines(t, res, "out/counts")

	fs2 := dfs.NewWith(dfs.Options{})
	fs2.Append("data/weather", weatherData(2000)...)
	eng2 := mapred.NewEngine(fs2, cluster.New(16, 3), nil, mapred.DefaultCostModel())
	if _, err := RunPlain(eng2, weatherScript); err != nil {
		t.Fatal(err)
	}
	plain, err := fs2.ReadTree("out/counts")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(plain)
	if strings.Join(bftOut, "|") != strings.Join(plain, "|") {
		t.Errorf("BFT output differs from plain run:\n%v\nvs\n%v", bftOut, plain)
	}
}

func TestControllerSingleExecution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.F = 0
	cfg.R = 1
	h := newHarness(t, 8, 2, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.FaultyReplicas != 0 {
		t.Errorf("single execution should verify trivially: %+v", res)
	}
}

func TestControllerDetectsCommissionFault(t *testing.T) {
	cfg := DefaultConfig() // r=4, f=1
	h := newHarness(t, 16, 3, cfg)
	if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
		t.Fatal(err)
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("r=4 should verify despite one faulty node")
	}
	if res.FaultyReplicas == 0 {
		t.Error("faulty replica not detected")
	}
	// Every deviant replica's cluster contains the bad node, so the
	// suspicion set must include it.
	found := false
	for _, s := range res.Suspects {
		if s == "node-003" {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %v do not include the faulty node", res.Suspects)
	}
	if h.Ctrl.Susp.Level("node-003") == 0 {
		t.Error("suspicion level of faulty node is zero")
	}
	// Output still correct.
	if len(h.outputLines(t, res, "out/counts")) == 0 {
		t.Error("no verified output")
	}
}

func TestControllerOptimisticR2Retries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 2 // optimistic f+1: one commission fault forces a re-run
	h := newHarness(t, 16, 3, cfg)
	if err := h.Cluster.SetAdversary("node-001", cluster.FaultCommission, 1.0, 7); err != nil {
		t.Fatal(err)
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("retry should eventually verify")
	}
	if res.Attempts <= res.Clusters {
		t.Errorf("expected re-initiated sub-graphs: attempts=%d clusters=%d", res.Attempts, res.Clusters)
	}
}

func TestControllerTimeoutOnOmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = 2
	cfg.TimeoutUs = 60_000_000
	h := newHarness(t, 6, 2, cfg)
	// Omission faults: some replica hangs, the verifier timeout fires,
	// and the sub-graph is re-initiated with r+1 and a doubled timeout
	// (Table 3, r=3 case 2 behaviour). Several nodes omit with p=0.5 so
	// hitting one does not depend on exact task placement.
	for i, n := range []cluster.NodeID{"node-000", "node-001", "node-002"} {
		if err := h.Cluster.SetAdversary(n, cluster.FaultOmission, 0.9, int64(40+i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("timeout path should recover")
	}
	if res.Attempts <= res.Clusters {
		t.Error("omission should force at least one re-initiation")
	}
	suspected := false
	for _, n := range []cluster.NodeID{"node-000", "node-001", "node-002"} {
		if h.Ctrl.Susp.Level(n) > 0 {
			suspected = true
		}
	}
	if !suspected {
		t.Error("no omission node was suspected")
	}
}

func TestControllerCvsPRecomputationAdvantage(t *testing.T) {
	// Table 3's shape: with a commission fault and optimistic r=2,
	// ClusterBFT (intermediate points) re-runs only the failed
	// sub-graph, while P (final-only) re-runs the whole pipeline, so
	// C's latency multiplier is lower.
	runWith := func(points int) int64 {
		cfg := DefaultConfig()
		cfg.R = 2
		cfg.Points = points
		h := newHarness(t, 20, 3, cfg)
		if err := h.Cluster.SetAdversary("node-002", cluster.FaultCommission, 1.0, 13); err != nil {
			t.Fatal(err)
		}
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatalf("points=%d: %v", points, err)
		}
		if !res.Verified {
			t.Fatalf("points=%d not verified", points)
		}
		return res.LatencyUs
	}
	c := runWith(2)
	p := runWith(0)
	if c >= p {
		t.Errorf("ClusterBFT latency %d should beat final-only %d under recomputation", c, p)
	}
}

func TestControllerVerifyFinalOnlySingleCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Points = 0
	h := newHarness(t, 16, 3, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 1 {
		t.Errorf("final-only verification should form one cluster, got %d", res.Clusters)
	}
}

func TestControllerConservativeMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Offline = false
	h := newHarness(t, 16, 3, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("conservative mode failed")
	}
}

func TestControllerOfflineFasterOrEqual(t *testing.T) {
	lat := func(offline bool) int64 {
		cfg := DefaultConfig()
		cfg.Offline = offline
		h := newHarness(t, 16, 3, cfg)
		res, err := h.Ctrl.Run(weatherScript)
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencyUs
	}
	off, cons := lat(true), lat(false)
	if off > cons {
		t.Errorf("offline (optimistic) latency %d should be <= conservative %d", off, cons)
	}
}

func TestControllerSuspicionExclusionEvictsNode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SuspicionThreshold = 0.5
	h := newHarness(t, 16, 3, cfg)
	if err := h.Cluster.SetAdversary("node-004", cluster.FaultCommission, 1.0, 3); err != nil {
		t.Fatal(err)
	}
	// Run several scripts; the bad node should eventually be excluded.
	for i := 0; i < 3; i++ {
		if _, err := h.Ctrl.Run(weatherScript); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !h.Ctrl.Susp.Excluded("node-004") {
		t.Errorf("faulty node not evicted; level=%v", h.Ctrl.Susp.Level("node-004"))
	}
}

func TestControllerLatencyOverheadVsPlain(t *testing.T) {
	// Headline (§6.1 / Fig 9): BFT execution with digests stays within a
	// modest factor of Pure Pig when replicas run in parallel.
	cfg := DefaultConfig()
	h := newHarness(t, 32, 3, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}

	fs2 := dfs.NewWith(dfs.Options{})
	fs2.Append("data/weather", weatherData(2000)...)
	eng2 := mapred.NewEngine(fs2, cluster.New(32, 3), nil, mapred.DefaultCostModel())
	plain, err := RunPlain(eng2, weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.LatencyUs) / float64(plain)
	if ratio > 1.75 {
		t.Errorf("BFT/plain latency ratio %.2f too high (bft=%d plain=%d)", ratio, res.LatencyUs, plain)
	}
}

func TestControllerStrongModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = analyze.Strong
	h := newHarness(t, 16, 3, cfg)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("strong-model run failed")
	}
}

func TestControllerParseError(t *testing.T) {
	h := newHarness(t, 4, 2, DefaultConfig())
	if _, err := h.Ctrl.Run("this is not pig;"); err == nil {
		t.Error("bad script must error")
	}
}

func TestRunPlainErrors(t *testing.T) {
	eng := mapred.NewEngine(dfs.NewWith(dfs.Options{}), cluster.New(2, 2), nil, mapred.DefaultCostModel())
	if _, err := RunPlain(eng, "garbage"); err == nil {
		t.Error("parse error expected")
	}
}

func TestOverlapSchedulerExclusion(t *testing.T) {
	susp := verify.NewSuspicionTable(0.5)
	susp.RecordJob([]cluster.NodeID{"node-000"})
	susp.RecordFault([]cluster.NodeID{"node-000"})
	s := NewOverlapScheduler(susp)
	node := &cluster.Node{ID: "node-000", Slots: 2}
	js := &mapred.JobState{Spec: &mapred.JobSpec{ID: "j", SID: "s1"}}
	task := &mapred.Task{Job: js, Kind: mapred.MapTask}
	if s.Pick(node, nil, []*mapred.Task{task}) != nil {
		t.Error("excluded node must get no work")
	}
}

func TestOverlapSchedulerReplicaAffinity(t *testing.T) {
	s := NewOverlapScheduler(nil)
	node := &cluster.Node{ID: "node-001", Slots: 3}
	mk := func(sid string) *mapred.Task {
		return &mapred.Task{Job: &mapred.JobState{Spec: &mapred.JobSpec{ID: sid + "-j", SID: sid}}, Kind: mapred.MapTask}
	}
	if got := s.Pick(node, nil, []*mapred.Task{mk("b"), mk("a")}); got == nil || got.Job.Spec.SID != "b" {
		t.Fatalf("unbound node picked %v, want the first candidate", got)
	}
	// A node the engine binds to sub-graph "a" keeps packing "a" tasks
	// (replica affinity prevents later replicas being starved of legal
	// nodes), even when a new SID is on offer.
	got := s.Pick(node, map[string]int{"a": 0}, []*mapred.Task{mk("b"), mk("a")})
	if got == nil || got.Job.Spec.SID != "a" {
		t.Errorf("overlap scheduler picked %v, want affine SID a", got)
	}
}

func TestOverlapSchedulerNewSIDOverRemote(t *testing.T) {
	// Among non-hosted SIDs, candidates tie on the overlap score and
	// locality breaks the tie.
	s := NewOverlapScheduler(nil)
	node := &cluster.Node{ID: "node-001", Slots: 3}
	js1 := &mapred.JobState{Spec: &mapred.JobSpec{ID: "x-j", SID: "x"}}
	js2 := &mapred.JobState{Spec: &mapred.JobSpec{ID: "y-j", SID: "y"}}
	remote := &mapred.Task{Job: js1, Kind: mapred.MapTask, Home: "node-009"}
	local := &mapred.Task{Job: js2, Kind: mapred.MapTask, Home: "node-001"}
	if got := s.Pick(node, nil, []*mapred.Task{remote, local}); got != local {
		t.Errorf("picked %v, want the local new-SID task", got)
	}
}

func TestOverlapSchedulerLocalityTiebreak(t *testing.T) {
	s := NewOverlapScheduler(nil)
	node := &cluster.Node{ID: "node-002", Slots: 1}
	js := &mapred.JobState{Spec: &mapred.JobSpec{ID: "j", SID: "x"}}
	remote := &mapred.Task{Job: js, Kind: mapred.MapTask, Index: 0, Home: "node-000"}
	local := &mapred.Task{Job: js, Kind: mapred.MapTask, Index: 1, Home: "node-002"}
	got := s.Pick(node, nil, []*mapred.Task{remote, local})
	if got != local {
		t.Error("equal-overlap tie should break by locality")
	}
}

// TestControllerAuditTrailAndSpans runs the commission-fault scenario
// with the full observability stack attached: the audit trail (via
// AttachAudit, stamped by the engine clock) must record the digest
// mismatches naming the faulty replica's cluster and the suspicion
// score changes they cause, and the tracer must carry verification
// spans plus suspicion instants alongside the engine's task spans.
func TestControllerAuditTrailAndSpans(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig()) // r=4, f=1
	if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
		t.Fatal(err)
	}
	trail := analyze.NewAuditTrail(h.Engine.Now)
	h.Ctrl.AttachAudit(trail)
	tracer := obs.NewTracer(0)
	h.Engine.Trace = tracer

	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.FaultyReplicas == 0 {
		t.Fatalf("scenario did not detect the fault: %+v", res)
	}

	var mismatches, scores int
	for _, e := range trail.Events() {
		switch e.Kind {
		case analyze.AuditMismatch:
			mismatches++
			found := false
			for _, n := range e.Nodes {
				if n == "node-003" {
					found = true
				}
			}
			if !found {
				t.Errorf("mismatch event does not name the faulty node: %+v", e)
			}
			if e.T <= 0 {
				t.Errorf("mismatch not stamped with engine time: %+v", e)
			}
		case analyze.AuditScore:
			scores++
		}
	}
	if mismatches == 0 {
		t.Error("no mismatch events in the audit trail")
	}
	if scores == 0 {
		t.Error("no suspicion-score events in the audit trail")
	}
	if out := analyze.RenderTimeline(trail.Events(), 0); !strings.Contains(out, "mismatch") {
		t.Errorf("rendered trail missing mismatch lines:\n%s", out)
	}

	var verifySpans, suspicionSpans, taskSpans int
	for _, s := range tracer.Spans() {
		switch s.Cat {
		case "verify":
			verifySpans++
			if s.VEnd < s.VStart {
				t.Errorf("verify span ends before it starts: %+v", s)
			}
		case "suspicion":
			suspicionSpans++
		case "task":
			taskSpans++
		}
	}
	if verifySpans == 0 || suspicionSpans == 0 || taskSpans == 0 {
		t.Errorf("span mix verify=%d suspicion=%d task=%d, want all > 0",
			verifySpans, suspicionSpans, taskSpans)
	}
}

// TestControllerCombinedCommissionCaught pins the combiner's interplay
// with §5 verification: with map-side combining active (the default),
// a commission-faulty node corrupts records that reach the shuffle only
// as combined partial state — yet the verification points digest the
// pre-combine stream, so the deviation is still detected and attributed,
// and the verified output matches an honest run byte for byte (which
// mapred's TestCombineOnOffEquivalence in turn pins to the un-combined
// path).
func TestControllerCombinedCommissionCaught(t *testing.T) {
	// The first weather job must actually combine, or this test would
	// silently degrade into the plain commission scenario.
	plan, err := pig.Parse(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{NumReduces: DefaultConfig().NumReduces})
	if err != nil {
		t.Fatal(err)
	}
	combined := false
	for _, j := range jobs {
		if j.Reduce != nil && j.Reduce.Combine {
			combined = true
		}
	}
	if !combined {
		t.Fatal("weather script compiles with no combined job; test premise broken")
	}

	h := newHarness(t, 16, 3, DefaultConfig()) // r=4, f=1, combiners on
	if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
		t.Fatal(err)
	}
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("combined run should verify despite one faulty node")
	}
	if res.FaultyReplicas == 0 {
		t.Error("commission fault on combined partials not detected")
	}
	found := false
	for _, s := range res.Suspects {
		if s == "node-003" {
			found = true
		}
	}
	if !found {
		t.Errorf("suspects %v do not include the faulty node", res.Suspects)
	}
	if h.Engine.Metrics.CombinedRecords == 0 {
		t.Error("no records were combined; combiner was not active")
	}

	// Honest baseline: same observables.
	h2 := newHarness(t, 16, 3, DefaultConfig())
	res2, err := h2.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Verified {
		t.Fatal("honest baseline failed to verify")
	}
	faulty := h.outputLines(t, res, "out/counts")
	honest := h2.outputLines(t, res2, "out/counts")
	if strings.Join(faulty, "|") != strings.Join(honest, "|") {
		t.Errorf("verified output differs between the faulty and the honest run:\n%v\nvs\n%v", faulty, honest)
	}
}

// TestLaunchRejectsReplicationBeyondTally: the verifier's vote classes
// are 64-bit replica masks, and a replica the matcher cannot tally would
// fingerprint as an empty vector — so a degree past verify.MaxReplicas must end
// the run with an error, never launch.
func TestLaunchRejectsReplicationBeyondTally(t *testing.T) {
	cfg := DefaultConfig()
	cfg.R = verify.MaxReplicas + 1
	h := newHarness(t, 4, 2, cfg)
	_, err := h.Ctrl.Run(weatherScript)
	if err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("Run at r=%d: err = %v, want the replica-limit error", cfg.R, err)
	}
	if n := h.Engine.JobCount(); n != 0 {
		t.Errorf("engine holds %d jobs of an attempt that must not launch", n)
	}
}

// TestConfigValidate: a configuration that can verify nothing (f+1 = 0
// agreeing replicas), launch nothing (r = 0: three timeouts, then a
// "verified" run of no replicas) or tally nothing (r past the vote
// mask) is refused by Run up front with Validate's own error, before
// the engine's clock moves; the boundary values stay legal.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
		want string // "" = valid
	}{
		{"default", func(*Config) {}, ""},
		{"f=0 r=1", func(c *Config) { c.F, c.R = 0, 1 }, ""},
		{"r=MaxReplicas", func(c *Config) { c.R = verify.MaxReplicas }, ""},
		{"f=-1", func(c *Config) { c.F = -1 }, "f = -1"},
		{"r=0", func(c *Config) { c.R = 0 }, "r = 0"},
		{"r=-2", func(c *Config) { c.R = -2 }, "r = -2"},
		{"r=100", func(c *Config) { c.R = 100 }, "r = 100 replicas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.set(&cfg)
			verr := cfg.Validate()
			if tc.want == "" {
				if verr != nil {
					t.Fatalf("Validate = %v, want nil", verr)
				}
				return
			}
			if verr == nil || !strings.Contains(verr.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", verr, tc.want)
			}
			h := newHarness(t, 4, 2, cfg)
			res, err := h.Ctrl.Run(weatherScript)
			if res != nil || err == nil || err.Error() != verr.Error() {
				t.Fatalf("Run = %v, %v; want Validate's error %q", res, err, verr)
			}
			if h.Engine.Now() != 0 || h.Engine.JobCount() != 0 {
				t.Errorf("rejected run advanced the engine: now=%d jobs=%d", h.Engine.Now(), h.Engine.JobCount())
			}
		})
	}
}

// TestControllerPrunedInputCommissionCaught: the map side of GROUP BY
// origin + COUNT reads one input column of five and leaves the rest
// undecoded. A commission fault tampers every column of every tuple; the
// one column the job reads carries it into the partials and the digested
// output, so the deviation is detected, the node suspected, and the
// verified output equals an honest run's.
func TestControllerPrunedInputCommissionCaught(t *testing.T) {
	const script = `
fl = LOAD 'data/flights' AS (year:int, month:int, origin, dest, delay:int);
g = GROUP fl BY origin;
n = FOREACH g GENERATE group AS airport, COUNT(fl) AS flights;
STORE n INTO 'out/n';
`
	cfg := DefaultConfig() // r=4, f=1; the one point is the STORE's parent
	plan, err := pig.Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{Points: []int{plan.ByAlias("n").ID}, NumReduces: cfg.NumReduces})
	if err != nil {
		t.Fatal(err)
	}
	if in := jobs[0].Inputs[0]; len(jobs) != 1 || len(in.Ops) != 0 || !jobs[0].Reduce.Combine || len(in.KeyCols) != 1 {
		t.Fatalf("premise broken: want one combining job reading only its key column map-side, got %v ops %v", jobs, in.Ops)
	}
	run := func(faulty bool) (*harness, *Result) {
		h := newHarness(t, 16, 3, cfg)
		flights := make([]string, 3000)
		for i := range flights {
			flights[i] = fmt.Sprintf("%d\t%d\tAP%02d\tAP%02d\t%d", 1990+i%20, 1+i%12, i%17, (i*7)%17, i%90-30)
		}
		h.FS.Append("data/flights", flights...)
		if faulty {
			if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.Ctrl.Run(script)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("faulty=%v: run did not verify", faulty)
		}
		return h, res
	}
	h, res := run(true)
	if res.FaultyReplicas == 0 {
		t.Error("commission fault on a column-pruned input not detected")
	}
	if !slices.Contains(res.Suspects, cluster.NodeID("node-003")) {
		t.Errorf("suspects %v do not include the faulty node", res.Suspects)
	}
	h2, res2 := run(false)
	got, want := h.outputLines(t, res, "out/n"), h2.outputLines(t, res2, "out/n")
	if len(want) != 17 || !slices.Equal(got, want) {
		t.Errorf("verified output under the fault differs from the honest run's:\n%v\nvs\n%v", got, want)
	}
}

// TestAuditEventFields: what the chaos invariants and a future explain
// read off the trail is in fields, not prose. Every mismatch the
// controller records names an attempt the trail saw launched, a replica
// that attempt has, and the fault it rests on; a lifecycle decision names
// its attempt and no replica (a verify, the winner); the analyzer's and
// the suspicion table's own events name no attempt at all.
func TestAuditEventFields(t *testing.T) {
	scenarios := map[string]func(*harness){
		"commission": func(h *harness) {
			if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
				t.Fatal(err)
			}
		},
		"omission": func(h *harness) {
			for i, n := range []cluster.NodeID{"node-000", "node-001", "node-002"} {
				if err := h.Cluster.SetAdversary(n, cluster.FaultOmission, 0.9, int64(40+i)); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	wantCause := map[string]analyze.AuditCause{"commission": analyze.CauseCommission, "omission": analyze.CauseTimeout}
	for name, arm := range scenarios {
		cfg := DefaultConfig()
		nodes, slots := 16, 3
		if name == "omission" { // TestControllerTimeoutOnOmission's rig: r=2 must time out and retry
			cfg.R, cfg.TimeoutUs, nodes, slots = 2, 60_000_000, 6, 2
		}
		h := newHarness(t, nodes, slots, cfg)
		arm(h)
		trail := analyze.NewAuditTrail(h.Engine.Now)
		h.Ctrl.AttachAudit(trail)
		h.Engine.Board = obs.NewJobsBoard() // one row per attempt: how many replicas it has
		if res, err := h.Ctrl.Run(weatherScript); err != nil || !res.Verified {
			t.Fatalf("%s: run did not verify: %v", name, err)
		}
		replicas := map[string]int{}
		for _, row := range h.Engine.Board.SIDs() {
			replicas[row.SID] = row.Replicas
		}
		launched := map[string]bool{}
		causes := map[analyze.AuditCause]int{}
		retriedOnTimeout := false
		for _, e := range trail.Events() {
			switch e.Kind {
			case analyze.AuditLaunch:
				if e.SID == "" || launched[e.SID] || e.Replica != -1 {
					t.Errorf("%s: launch event %+v: want a fresh attempt and no replica", name, e)
				}
				launched[e.SID] = true
			case analyze.AuditMismatch:
				if !launched[e.SID] {
					t.Errorf("%s: mismatch names attempt %q, which was never launched: %+v", name, e.SID, e)
				}
				if e.Replica < 0 || e.Replica >= replicas[e.SID] {
					t.Errorf("%s: mismatch names replica %d of %s, which has %d: %+v", name, e.Replica, e.SID, replicas[e.SID], e)
				}
				if e.Cause != analyze.CauseCommission && e.Cause != analyze.CauseTimeout {
					t.Errorf("%s: mismatch rests on no fault: %+v", name, e)
				}
				causes[e.Cause]++
			case analyze.AuditVerify:
				if !launched[e.SID] || e.Replica < 0 || e.Replica >= replicas[e.SID] {
					t.Errorf("%s: verify event %+v: want a launched attempt and its winner", name, e)
				}
			case analyze.AuditRetry, analyze.AuditRestart, analyze.AuditEscalate, analyze.AuditFail:
				if !launched[e.SID] || e.Replica != -1 {
					t.Errorf("%s: %s event %+v: want a launched attempt and no replica", name, e.Kind, e)
				}
				retriedOnTimeout = retriedOnTimeout || (e.Kind == analyze.AuditRetry && e.Cause == analyze.CauseTimeout)
			default: // the analyzer's and the suspicion table's reasoning
				if e.SID != "" || e.Replica != -1 || e.Cause != 0 {
					t.Errorf("%s: %s event carries attempt fields: %+v", name, e.Kind, e)
				}
			}
		}
		if causes[wantCause[name]] == 0 {
			t.Errorf("%s: no mismatch resting on %s: %v", name, wantCause[name], causes)
		}
		if name == "omission" && !retriedOnTimeout {
			t.Errorf("omission: no retry event resting on the timeout")
		}
	}
}

// TestRecordDetachedAllocs: the timed paths run with no trail, board or
// tracer attached, and there a lifecycle decision must cost what the
// call sites it replaced did — the ledger update and nil checks, no
// formatted detail, no name list, no heap-allocated closure.
func TestRecordDetachedAllocs(t *testing.T) {
	h := newHarness(t, 4, 2, DefaultConfig())
	c := h.Ctrl
	if c.audit != nil || c.Eng.Board != nil || c.Eng.Trace != nil {
		t.Fatal("harness attaches a store; the pin needs none")
	}
	cs := &clusterState{sub: &verify.Verdict{ID: 1}, plan: verify.LaunchPlan{SID: "run1-c1-a1", Policy: verify.PolicyFull, R: 4, TotalTries: 2}}
	kinds := []analyze.AuditEvent{
		{Kind: analyze.AuditLaunch, Replica: -1, Detail: "run1-c1-a0"},
		{Kind: analyze.AuditVerify, Replica: 2},
		{Kind: analyze.AuditEscalate, Replica: -1, Detail: "quiz re-execution digest mismatch"},
		{Kind: analyze.AuditRetry, Replica: -1, Cause: analyze.CauseTimeout},
		{Kind: analyze.AuditRestart, Replica: -1},
		{Kind: analyze.AuditFail, Replica: -1},
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, ev := range kinds {
			c.record(cs, ev, 3)
		}
	}); got != 0 {
		t.Errorf("record with nothing attached allocates %v times per %d decisions, want 0", got, len(kinds))
	}
}

// TestPanickingBodyIsAnOmission: a task body that panics costs the run
// what a node withholding its result does, not the process. Every map
// task placed on node-002 panics inside its Corrupt hook; at r=2 the
// replica that met it times out, the sub-graph is retried, the run ends
// verified with honest output and node-002 is the one charged. A plain
// run has no retry to fall back on: with every node panicking it must
// return an error.
func TestPanickingBodyIsAnOmission(t *testing.T) {
	const bad = cluster.NodeID("node-002")
	panicOn := func(h *harness, everywhere bool) {
		h.Engine.TaskHook = func(n cluster.NodeID, tk *mapred.Task) mapred.TaskFault {
			if !everywhere && n != bad || tk.Kind != mapred.MapTask {
				return mapred.TaskFault{}
			}
			return mapred.TaskFault{Corrupt: func(tuple.Value, func(s, suffix string) string) tuple.Value {
				panic("tampering went wrong")
			}}
		}
	}
	cfg := DefaultConfig()
	cfg.R = 2
	cfg.TimeoutUs = 60_000_000
	h := newRig(6, 2)
	panicOn(h, false)
	h.Assure(cfg)
	trail := analyze.NewAuditTrail(h.Engine.Now)
	h.Ctrl.AttachAudit(trail)
	res, err := h.Ctrl.Run(weatherScript)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run with a panicking body did not end verified")
	}
	if h.Engine.Metrics.TasksHung == 0 || res.Attempts <= res.Clusters {
		t.Errorf("no body panicked, or nothing was retried: hung=%d attempts=%d clusters=%d",
			h.Engine.Metrics.TasksHung, res.Attempts, res.Clusters)
	}
	timedOut := false
	for _, ev := range trail.Events() {
		if ev.Kind == analyze.AuditMismatch && ev.Cause == analyze.CauseTimeout {
			timedOut = true
		}
	}
	if !timedOut {
		t.Error("no mismatch event carries CauseTimeout")
	}
	if h.Ctrl.Susp.Level(bad) == 0 {
		t.Errorf("%s not charged", bad)
	}
	honest, resHonest := newHarness(t, 6, 2, cfg), (*Result)(nil)
	if resHonest, err = honest.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	if got, want := h.outputLines(t, res, "out/counts"), honest.outputLines(t, resHonest, "out/counts"); !reflect.DeepEqual(got, want) {
		t.Errorf("verified output %v, honest run %v", got, want)
	}

	plain := newRig(6, 2)
	panicOn(plain, true)
	if _, err := RunPlain(plain.Engine, weatherScript); err == nil {
		t.Error("plain run over a panicking body returned no error")
	}
}

// TestStorageFaultIsNotANodeFault: one flipped byte in the spill file is
// the trusted store breaking, not a node. Every replica's map task reads
// the same bad block and panics in its body; blaming the nodes that ran
// them would cost r honest nodes their standing and retry into the same
// byte forever. The run ends instead, assured and plain alike, in an error
// naming the file and the block, with no fault recorded, and the process
// goes on to the next statement.
func TestStorageFaultIsNotANodeFault(t *testing.T) {
	spilled := func() *harness {
		dir := t.TempDir()
		sys := NewSystem(6, 2, dfs.Options{BlockSize: 2 << 10, MemBudget: 512, SpillDir: dir, Compress: true}, mapred.DefaultCostModel())
		t.Cleanup(func() { sys.FS.Close() })
		sys.FS.Append("data/weather", weatherData(4000)...)
		files, err := filepath.Glob(filepath.Join(dir, "clusterbft-spill-*.blk"))
		if err != nil || len(files) != 1 || sys.FS.SpilledBlocks() < 2 {
			t.Fatalf("spill files %v (%v), %d blocks spilled: want one file holding several", files, err, sys.FS.SpilledBlocks())
		}
		f, err := os.OpenFile(files[0], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], 40); err != nil { // a byte of the first block's payload
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], 40); err != nil {
			t.Fatal(err)
		}
		return &harness{sys}
	}
	check := func(who string, err error) {
		t.Helper()
		var bad *dfs.BlockError
		if !errors.As(err, &bad) || bad.Path != "data/weather" || bad.Block != 0 {
			t.Fatalf("%s: err = %v; want a *dfs.BlockError for block 0 of data/weather", who, err)
		}
		if !strings.Contains(err.Error(), "data/weather") || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("%s: %q names neither the file nor the cause", who, err)
		}
	}

	h := spilled()
	cfg := DefaultConfig()
	cfg.TimeoutUs = 60_000_000
	h.Assure(cfg)
	trail := analyze.NewAuditTrail(h.Engine.Now)
	h.Ctrl.AttachAudit(trail)
	res, err := h.Ctrl.Run(weatherScript)
	check("assured", err)
	if res != nil {
		t.Errorf("assured: a result beside the error: %+v", res)
	}
	if s := h.Ctrl.FA.Suspects(); len(s) != 0 || h.Engine.Metrics.TasksHung != 0 {
		t.Errorf("assured: suspects %v, %d tasks hung: a storage fault was charged to nodes", s, h.Engine.Metrics.TasksHung)
	}
	for _, n := range h.Cluster.Nodes() {
		if lvl := h.Susp.Level(n.ID); lvl != 0 {
			t.Errorf("assured: %s at suspicion %v", n.ID, lvl)
		}
	}
	for _, ev := range trail.Events() {
		if ev.Kind == analyze.AuditMismatch {
			t.Errorf("assured: the trail has a mismatch: %+v", ev)
		}
	}

	_, err = RunPlain(spilled().Engine, weatherScript)
	check("plain", err)
}

// TestOutputStorageFaultIsNotANodeFault: an output block that fails its
// checksum when the engine reads the job's stored output — for its
// AuditIOOutPoint digest, before any consumer reads it — ends the run with
// that file's *dfs.BlockError, as a bad input block does: no panic escapes
// Run, no node is suspected, and the trail holds no mismatch.
func TestOutputStorageFaultIsNotANodeFault(t *testing.T) {
	const script = `
w = LOAD 'data/weather' AS (st, temp:int);
hot = FILTER w BY temp > 2;
STORE hot INTO 'out/hot';
`
	dir := t.TempDir()
	cost := mapred.DefaultCostModel()
	cost.SplitRecords = 1000
	h := &harness{NewSystem(6, 2, dfs.Options{BlockSize: 2 << 10, MemBudget: 512, SpillDir: dir, Compress: true}, cost)}
	t.Cleanup(func() { h.FS.Close() })
	h.FS.Append("data/weather", weatherData(4000)...)
	// Output blocks spill past the input's: those spilled, and those still
	// resident, its short last block among them, which the eviction queue
	// spills first.
	inputEnd := h.FS.SpillBytes() + h.FS.ResidentBytes()
	cfg := DefaultConfig()
	cfg.VerifyPolicy = verify.PolicyQuiz
	cfg.TimeoutUs = 60_000_000
	h.Assure(cfg)
	trail := analyze.NewAuditTrail(h.Engine.Now)
	h.Ctrl.AttachAudit(trail)
	// A task's digests reach the sink just before it commits, so the
	// second task's find the first part installed, and nothing yet read.
	var first string // the first part installed, whose first block is flipped
	sink := h.Engine.DigestSink
	h.Engine.DigestSink = func(r digest.Report) {
		defer sink(r)
		parts := h.FS.List("x")
		if first != "" || len(parts) == 0 {
			return
		}
		first = parts[0]
		// The first part is in the spill file now; no read has reached it.
		files, err := filepath.Glob(filepath.Join(dir, "clusterbft-spill-*.blk"))
		if err != nil || len(files) != 1 {
			t.Fatalf("spill files %v (%v): want one", files, err)
		}
		f, err := os.OpenFile(files[0], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], inputEnd+40); err != nil { // a byte of its first block's payload
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b[:], inputEnd+40); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Ctrl.Run(script)
	var bad *dfs.BlockError
	if !errors.As(err, &bad) || first == "" || bad.Path != first || bad.Block != 0 {
		t.Fatalf("err = %v; want a *dfs.BlockError for block 0 of %q", err, first)
	}
	if res != nil {
		t.Errorf("a result beside the error: %+v", res)
	}
	if h.Engine.Fault != bad {
		t.Errorf("Engine.Fault = %v, not the error Run returned", h.Engine.Fault)
	}
	if s := h.Ctrl.FA.Suspects(); len(s) != 0 || h.Engine.Metrics.TasksHung != 0 {
		t.Errorf("suspects %v, %d tasks hung: a storage fault was charged to nodes", s, h.Engine.Metrics.TasksHung)
	}
	for _, n := range h.Cluster.Nodes() {
		if lvl := h.Susp.Level(n.ID); lvl != 0 {
			t.Errorf("%s at suspicion %v", n.ID, lvl)
		}
	}
	for _, ev := range trail.Events() {
		if ev.Kind == analyze.AuditMismatch {
			t.Errorf("the trail has a mismatch: %+v", ev)
		}
	}
}
