package main

import (
	"fmt"
	"time"
)

// setupReps is how many times a session sets up from scratch; setup_s is
// the median, so one cold page cache or late GC does not decide it.
const setupReps = 3

// options are the settings shared by every workload of one invocation.
type options struct {
	seed   int64
	pct    int    // input size as a percentage of the fixed sizes
	outDir string // traces, profiles and the spill file live here
}

// session runs one workload as a closed loop of one client: the next op
// starts only after the previous one has returned and been checked.
type session struct {
	sp  *spec
	opt options
	in  *input

	attempted int
	failed    int
	failures  []string // first few failure messages, for the report

	setups []float64 // reference-host seconds per set-up repetition

	// Samples of the untraced pass, one per iteration. Times are in
	// reference-host milliseconds (yardstick.go) unless named raw.
	assuredWall []float64
	assuredCPU  []float64
	plainWall   []float64 // median of the iteration's plain ops
	tax         []float64 // assured op / median of the plain ops just before it
	plainOps    int       // plain ops behind the iterations' medians
	assuredRaw  []float64 // wall-clock as measured
	plainRaw    []float64
	yardstick   []float64 // every yardstick measurement, raw
	lastYard    float64   // the latest one, when nothing but checks ran since
	mallocs     []float64
	allocMB     []float64
	gcCycles    []float64
	gcPauseMs   []float64
	heapInuse   []float64
	ingestMs    []float64 // every op's untimed Append

	// Virtual-time results. They are functions of the input alone, so
	// every op of a session must report the same ones.
	assuredVirtUs int64 // latency to verified result, plus verdict ordering
	virtCPUUs     int64
	plainVirtUs   int64

	layers values // per-layer metrics, filled by the traced pass
}

func newSession(sp *spec, opt options) *session {
	return &session{sp: sp, opt: opt, layers: make(values)}
}

func (s *session) fail(kind string, err error) {
	s.failed++
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf("%s %s op: %v", s.sp.name, kind, err))
	}
}

// plain runs one plain op and checks it; nil means it failed.
func (s *session) plain() *plainOp {
	s.attempted++
	op, err := s.sp.runPlain(s.in, s.opt.outDir)
	if err == nil && s.plainVirtUs != 0 && op.virtUs != s.plainVirtUs {
		err = fmt.Errorf("virtual latency %d us differs from an earlier op's %d us", op.virtUs, s.plainVirtUs)
	}
	if err != nil {
		s.fail("plain", err)
		return nil
	}
	s.plainVirtUs = op.virtUs
	s.ingestMs = append(s.ingestMs, float64(op.ingest)/1e6)
	return op
}

// assured runs one assured op and checks it; nil means it failed.
func (s *session) assured(v variant, rec *recorder) *assuredOp {
	s.attempted++
	rec.nextOp()
	op, err := s.sp.runAssured(s.in, s.opt.outDir, v, rec)
	if err == nil {
		virt := op.res.LatencyUs + op.virtOrderUs
		if s.assuredVirtUs != 0 && (virt != s.assuredVirtUs || op.res.Metrics.CPUTimeUs != s.virtCPUUs) {
			err = fmt.Errorf("virtual latency/cpu %d/%d us differ from an earlier op's %d/%d us",
				virt, op.res.Metrics.CPUTimeUs, s.assuredVirtUs, s.virtCPUUs)
		}
		s.assuredVirtUs, s.virtCPUUs = virt, op.res.Metrics.CPUTimeUs
	}
	if err != nil {
		s.fail("assured", err)
		return nil
	}
	s.ingestMs = append(s.ingestMs, float64(op.sys.ingest)/1e6)
	return op
}

// setup generates the input and its references and runs one warm-up op
// of each kind, setupReps times over. Everything up to the first timed
// op is in setup_s: work a change moves out of the ops shows up here.
func (s *session) setup(rec *recorder) {
	for i := 0; i < setupReps; i++ {
		before := s.yard()
		t0 := time.Now()
		id := rec.begin("workload.generate", 0)
		s.in = s.sp.generate(s.opt.seed, s.opt.pct)
		rec.end(id)
		s.plain()
		s.assured(variant{}, nil)
		elapsed := time.Since(t0).Seconds()
		s.setups = append(s.setups, hostScale(before, s.yard())*elapsed)
	}
}

// yard measures the host with the yardstick and remembers the result.
func (s *session) yard() float64 {
	s.lastYard = yardstickMs(s.opt.pct)
	s.yardstick = append(s.yardstick, s.lastYard)
	return s.lastYard
}

// iteration is plainReps plain ops and one assured op, each group between
// two yardstick measurements. Keeping the ops adjacent makes each tax
// sample a ratio of times taken under the same host conditions.
func (s *session) iteration() {
	y0 := s.lastYard // the one that closed the previous iteration
	if y0 == 0 {
		y0 = s.yard()
	}
	var plains []float64
	for i := 0; i < s.sp.plainReps; i++ {
		if p := s.plain(); p != nil {
			plains = append(plains, p.wallMs)
		}
	}
	y1 := s.yard()
	a := s.assured(variant{}, nil)
	y2 := s.yard()
	if a == nil || len(plains) == 0 {
		return
	}
	scale := hostScale(y1, y2)
	plain := median(plains)
	s.plainOps += len(plains)
	s.plainRaw = append(s.plainRaw, plain)
	s.plainWall = append(s.plainWall, plain*hostScale(y0, y1))
	s.tax = append(s.tax, a.wallMs/plain)
	s.assuredRaw = append(s.assuredRaw, a.wallMs)
	s.assuredWall = append(s.assuredWall, scale*a.wallMs)
	s.assuredCPU = append(s.assuredCPU, scale*a.cpuMs)
	s.mallocs = append(s.mallocs, a.mallocs)
	s.allocMB = append(s.allocMB, a.allocMB)
	s.gcCycles = append(s.gcCycles, a.gcCycles)
	s.gcPauseMs = append(s.gcPauseMs, a.gcPauseMs)
	s.heapInuse = append(s.heapInuse, a.heapInuse)
}

// measure runs untraced iterations for budget, and at least one. It
// stops when less than half an iteration's time is left, so a run ends
// near its budget instead of up to an iteration past it.
func (s *session) measure(budget time.Duration) {
	s.lastYard = 0 // other workloads may have run since
	deadline := time.Now().Add(budget)
	for {
		t0 := time.Now()
		s.iteration()
		if time.Until(deadline) < time.Since(t0)/2 {
			return
		}
	}
}

// endToEnd assembles the end-to-end metrics from the untraced samples.
func (s *session) endToEnd() values {
	v := make(values)
	v.med("setup_s", s.setups)
	v.med("assured_wall_ms_p50", s.assuredWall)
	v.med("plain_wall_ms_p50", s.plainWall)
	v.med("assurance_tax", s.tax)
	v.med("assured_cpu_ms_p50", s.assuredCPU)
	v.med("allocs_per_op", s.mallocs)
	v.med("alloc_mb_per_op", s.allocMB)
	v.set("virt_latency_s", float64(s.assuredVirtUs)/1e6)
	v.set("virt_cpu_s", float64(s.virtCPUUs)/1e6)
	v.set("virt_latency_x", float64(s.assuredVirtUs)/float64(s.plainVirtUs))
	v.set(failedOpPct.Name, 100*float64(s.failed)/float64(max(s.attempted, 1)))
	return v
}
