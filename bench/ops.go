package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"clusterbft/internal/bft"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
)

// slots is the task-slot count of every worker node, as in the paper's
// cluster and the repo's own benches.
const slots = 3

// input is one workload's generated data with its references.
type input struct {
	lines []string
	bytes int64
	pct   int                  // size as a percentage of the workload's fixed size
	want  map[string]*expected // STORE path -> reference output
}

func (sp *spec) generate(seed int64, pct int) *input {
	in := &input{lines: reseed(sp.draw(pct), seed), pct: pct, want: make(map[string]*expected)}
	for _, l := range in.lines {
		in.bytes += int64(len(l)) + 1
	}
	for store, lines := range sp.reference(in.lines) {
		in.want[store] = newExpected(lines, sp.countOnly)
	}
	return in
}

// variant selects what differs from the default system in the pool and
// obs comparisons of the traced pass.
type variant struct {
	workers int  // Engine.Workers; 0 = GOMAXPROCS
	obs     bool // metrics registry, DFS gauges and virtual-time tracer attached
}

// system is one disposable deployment, built fresh for every op so that
// no op sees another's suspicion state, caches or spill file.
type system struct {
	fs     *dfs.FS
	cl     *cluster.Cluster
	eng    *mapred.Engine
	ctrl   *core.Controller
	opts   dfs.Options
	ingest time.Duration
	tracer *obs.Tracer
}

// build assembles storage, cluster, engine and controller and ingests
// the input. All of it is untimed set-up of an op; only ingest is kept,
// for dfs.ingest_ms_p50.
func (sp *spec) build(in *input, spillDir string, faulty bool, v variant) (*system, error) {
	sys := &system{}
	if sp.storage != nil {
		sys.opts = sp.storage(in.bytes, spillDir)
	}
	sys.fs = dfs.NewWith(sys.opts)
	t0 := time.Now()
	sys.fs.Append(sp.path, in.lines...)
	sys.ingest = time.Since(t0)
	sys.fs.ResetCounters() // the op's own reads and writes, not the ingest

	// Splits shrink with the input, so a scaled-down run has the same
	// tasks, placement and recovery path as a full-size one.
	cm := mapred.DefaultCostModel()
	cm.SplitRecords = scaled(cm.SplitRecords, in.pct)
	sys.cl = cluster.New(sp.nodes, slots)
	susp := core.NewSuspicionTable(sp.cfg.SuspicionThreshold)
	sys.eng = mapred.NewEngine(sys.fs, sys.cl, core.NewOverlapScheduler(susp), cm)
	sys.eng.Workers = v.workers
	if v.obs {
		sys.tracer = obs.NewTracer(0)
		sys.eng.Trace = sys.tracer
		sys.eng.InstrumentMetrics(obs.NewRegistry()) // also instruments the FS
	}
	if faulty && sp.faults != nil {
		if err := sp.faults(sys.cl, sys.eng); err != nil {
			return nil, err
		}
	}
	sys.ctrl = core.NewController(sys.eng, sp.cfg, susp, nil)
	return sys, nil
}

// cost is what one timed section used.
type cost struct {
	wallMs    float64
	cpuMs     float64 // process user+sys
	mallocs   float64
	allocMB   float64
	gcCycles  float64
	gcPauseMs float64
	heapInuse float64 // MB at the end of the section, before any collection
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn from a collected heap and reports what it cost. prof,
// when non-nil, samples the CPU over exactly the timed section.
func timed(prof *profiler, fn func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	prof.start()
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	prof.stop()
	runtime.ReadMemStats(&m1)
	return cost{
		wallMs:    float64(wall) / 1e6,
		cpuMs:     float64(cpu) / 1e6,
		mallocs:   float64(m1.Mallocs - m0.Mallocs),
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		gcCycles:  float64(m1.NumGC - m0.NumGC),
		gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		heapInuse: float64(m1.HeapInuse) / 1e6,
	}, err
}

// verdictSM is the replicated request handler's state: a count of
// ordered verdict batches. Matching already happened in the verifier;
// consensus makes the verdicts durable across 3f+1 handlers.
type verdictSM struct{ n int }

func (s *verdictSM) Apply([]byte) []byte {
	s.n++
	return []byte{byte(s.n)}
}

// orderVerdicts sends reports digest verdicts, verdictBatch at a time,
// through a fresh 3f+1 PBFT group and returns the virtual time and the
// number of consensus instances that took.
func orderVerdicts(f int, reports int64) (virtUs int64, batches int, err error) {
	batches = int((reports + verdictBatch - 1) / verdictBatch)
	g := bft.NewGroup(f, func(int) bft.StateMachine { return &verdictSM{} })
	start := g.Net.Now()
	op := make([]byte, 0, 32)
	for i := 0; i < batches; i++ {
		op = fmt.Appendf(op[:0], "verdict-batch-%d", i)
		if _, _, err := g.Invoke(op); err != nil {
			return 0, 0, err
		}
	}
	return g.Net.Now() - start, batches, nil
}

// assuredOp is the outcome of one assured op.
type assuredOp struct {
	cost
	res         *core.Result
	sys         *system
	virtOrderUs int64
	batches     int
	orderMs     float64 // wall-clock inside orderVerdicts
	verdictMs   float64 // wall-clock inside Engine.DigestSink (traced only)
	decideMs    float64 // wall-clock inside Engine.OnJobDone (traced only)
}

// runAssured builds a system and times Controller.Run, the control-tier
// ordering where the workload has one, and the read of every verified
// STORE. It then checks the outputs against the reference and the
// workload's assurance conditions; any miss is returned as an error and
// counts as a failed op. rec, when non-nil, receives spans and makes the
// op a traced one: the engine's two callbacks are wrapped to time the
// verifier from outside.
func (sp *spec) runAssured(in *input, spillDir string, v variant, rec *recorder) (*assuredOp, error) {
	sys, err := sp.build(in, spillDir, true, v)
	if err != nil {
		return nil, err
	}
	defer sys.fs.Close()
	op := &assuredOp{sys: sys}
	rec.point("dfs.ingest", sys.ingest)

	var run int
	if rec != nil {
		sink, done := sys.eng.DigestSink, sys.eng.OnJobDone
		sys.eng.DigestSink = func(r digest.Report) {
			id := rec.begin("core.DigestSink", run)
			sink(r)
			op.verdictMs += rec.end(id)
		}
		sys.eng.OnJobDone = func(js *mapred.JobState) {
			id := rec.begin("core.OnJobDone", run)
			done(js)
			op.decideMs += rec.end(id)
		}
	}

	outputs := make(map[string][]string)
	op.cost, err = timed(rec.profiler(), func() error {
		run = rec.begin("controller.Run", 0)
		res, err := sys.ctrl.Run(sp.script)
		rec.end(run)
		op.res = res
		if err != nil {
			return err
		}
		if sp.ordered {
			id := rec.begin("bft.order", 0)
			t0 := time.Now()
			op.virtOrderUs, op.batches, err = orderVerdicts(sp.cfg.F, res.DigestReports)
			op.orderMs = float64(time.Since(t0)) / 1e6
			rec.end(id)
			if err != nil {
				return err
			}
		}
		id := rec.begin("output.read", 0)
		defer rec.end(id)
		for store, path := range res.Outputs {
			if outputs[store], err = sys.fs.ReadTree(path); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return op, err
	}

	id := rec.begin("reference.check", 0)
	defer rec.end(id)
	if !op.res.Verified {
		return op, fmt.Errorf("run ended unverified")
	}
	if op.res.DigestReports <= 0 {
		return op, fmt.Errorf("no digest report reached the verifier")
	}
	if sp.assure != nil {
		if err := sp.assure(op.res, sys); err != nil {
			return op, err
		}
	}
	return op, in.check(outputs)
}

// plainOp is the outcome of one unreplicated, unverified op.
type plainOp struct {
	cost
	virtUs int64
	ingest time.Duration
}

// runPlain times core.RunPlain and the read of every STORE on a system
// built like the assured one, minus the adversaries: nothing would catch
// them.
func (sp *spec) runPlain(in *input, spillDir string) (*plainOp, error) {
	sys, err := sp.build(in, spillDir, false, variant{})
	if err != nil {
		return nil, err
	}
	defer sys.fs.Close()
	op := &plainOp{ingest: sys.ingest}
	outputs := make(map[string][]string)
	op.cost, err = timed(nil, func() error {
		var err error
		if op.virtUs, err = core.RunPlain(sys.eng, sp.script); err != nil {
			return err
		}
		for store := range in.want {
			if outputs[store], err = sys.fs.ReadTree(store); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return op, err
	}
	return op, in.check(outputs)
}

// check compares every STORE an op produced with its reference.
func (in *input) check(outputs map[string][]string) error {
	for store, want := range in.want {
		got, ok := outputs[store]
		if !ok {
			return fmt.Errorf("%s: no output", store)
		}
		if err := want.matches(got); err != nil {
			return fmt.Errorf("%s: %w", store, err)
		}
	}
	return nil
}
