package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"clusterbft/internal/analyze"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// The traced pass measures single layers from outside: by timing calls
// into their public functions over the workload's own input ("replay
// kernels"), by wrapping the engine's two public callback fields, and by
// sampling the CPU while traced ops run. Nothing here touches a
// ReadHook, WriteHook or TaskHook: those change the path being measured.

// kernelReps is how often each replay kernel passes over the input; the
// median pass is reported.
const kernelReps = 3

// profiler collects the CPU profile of each timed section it is handed
// and folds the samples into one ledger.
type profiler struct {
	ledger cpuLedger
	buf    bytes.Buffer
	raw    [][]byte // one gzipped pprof profile per op, written out at the end
	err    error
}

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	p.buf.Reset()
	p.err = pprof.StartCPUProfile(&p.buf)
}

func (p *profiler) stop() {
	if p == nil || p.err != nil {
		return
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		p.err = err
		return
	}
	p.ledger.add(samples)
	p.raw = append(p.raw, bytes.Clone(p.buf.Bytes()))
}

// medianOf times reps runs of fn and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// choosePoints mirrors Controller.choosePoints, which is not exported:
// the parents of every STORE, plus the analyzer's marks for the config.
// It is the analyze layer's whole job in a run, so it is what
// analyze.mark_us times.
func choosePoints(plan *pig.Plan, cfg core.Config, size analyze.SizeFunc) []int {
	set := make(map[int]bool)
	var finals []int
	for _, st := range plan.Stores() {
		if id := st.Parents[0].ID; !set[id] {
			set[id] = true
			finals = append(finals, id)
		}
	}
	sort.Ints(finals)
	switch {
	case cfg.Points < 0:
		for _, p := range analyze.Analyze(plan, size).Candidates(cfg.Model) {
			set[p] = true
		}
	case cfg.Points > 0:
		for _, p := range analyze.Analyze(plan, size).Mark(cfg.Points, cfg.Model, finals...) {
			set[p] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// kernels replays each data-plane and front-end layer over the
// workload's own input, schema and storage options.
func (s *session) kernels(rec *recorder) error {
	sp, v := s.sp, s.layers
	sys, err := sp.build(s.in, s.opt.outDir, false, variant{})
	if err != nil {
		return err
	}
	defer sys.fs.Close()
	span := func(name string, reps int, fn func()) time.Duration {
		id := rec.begin(name, 0)
		defer rec.end(id)
		return medianOf(reps, fn)
	}
	perRec := func(d time.Duration) float64 { return float64(d) / float64(len(s.in.lines)) }

	// Front end: cheap, so many repetitions.
	var plan *pig.Plan
	v.set("pig.parse_us", float64(span("pig.Parse", 25, func() { plan, err = pig.Parse(sp.script) }))/1e3)
	if err != nil {
		return err
	}
	size := func(path string) int64 {
		if n, err := sys.fs.Size(path); err == nil {
			return n
		}
		return sys.fs.TreeSize(path)
	}
	var points []int
	v.set("analyze.mark_us", float64(span("analyze.Mark", 25, func() { points = choosePoints(plan, sp.cfg, size) }))/1e3)
	v.set("mapred.compile_us", float64(span("mapred.Compile", 25, func() {
		_, err = mapred.Compile(plan, mapred.CompileOptions{Points: points, NumReduces: sp.cfg.NumReduces})
	}))/1e3)
	if err != nil {
		return err
	}

	// Record codec and digest, over the input under the LOAD's schema.
	schema := plan.Loads()[0].Schema
	tuples := make([]tuple.Tuple, len(s.in.lines))
	v.set("tuple.decode_ns_per_rec", perRec(span("tuple.Decode", kernelReps, func() {
		var dec tuple.Decoder
		for i, l := range s.in.lines {
			tuples[i] = dec.DecodeLine(l, schema)
		}
	})))
	v.set("tuple.encode_ns_per_rec", perRec(span("tuple.Encode", kernelReps, func() {
		var buf []byte
		for _, t := range tuples {
			buf = tuple.AppendEncoded(buf[:0], t)
		}
	})))
	v.set("digest.ns_per_rec", perRec(span("digest.Add", kernelReps, func() {
		w := digest.NewWriter(digest.Key{SID: "kernel", Task: "m000"}, 0, sp.cfg.DigestChunk, func(digest.Report) {})
		for _, t := range tuples {
			w.Add(t)
		}
		w.Close()
	})))

	// Storage: a split-sized scan as map tasks do it, then the block
	// codec alone on blocks of the size the store seals.
	split := sys.eng.Cost.SplitRecords
	v.set("dfs.scan_ns_per_rec", perRec(span("dfs.Scan", kernelReps, func() {
		var r *dfs.Reader
		if r, err = sys.fs.OpenReader(sp.path); err != nil {
			return
		}
		for at := 0; at < r.NumRecords(); at += split {
			r.ReadRange(at, at+split)
		}
	})))
	if err != nil {
		return err
	}
	blockSize := sys.opts.BlockSize
	if blockSize <= 0 {
		blockSize = dfs.DefaultBlockSize
	}
	perBlock := max(1, int(int64(len(s.in.lines))*int64(blockSize)/s.in.bytes))
	var blocks [][]byte
	v.set("dfs.block_encode_ns_per_rec", perRec(span("dfs.EncodeBlock", kernelReps, func() {
		blocks = blocks[:0]
		for at := 0; at < len(s.in.lines); at += perBlock {
			blocks = append(blocks, dfs.EncodeBlock(s.in.lines[at:min(at+perBlock, len(s.in.lines))], sys.opts.Compress))
		}
	})))
	v.set("dfs.block_decode_ns_per_rec", perRec(span("dfs.DecodeBlock", kernelReps, func() {
		for _, b := range blocks {
			if _, err = dfs.DecodeBlock(b); err != nil {
				return
			}
		}
	})))
	return err
}

// traced runs the traced pass for about budget: the kernels, then traced
// assured ops under the CPU profiler, then the pool and obs comparisons.
// It needs the untraced samples measure left behind: they are the base
// of every overhead and speed-up it reports, all in reference-host time,
// since the passes run minutes apart.
func (s *session) traced(budget time.Duration, rec *recorder) error {
	if len(s.assuredWall) == 0 {
		return fmt.Errorf("%s: no untraced assured op succeeded, nothing to compare a trace with", s.sp.name)
	}
	start := time.Now()
	sp, v := s.sp, s.layers
	base := median(s.assuredWall)
	if err := s.kernels(rec); err != nil {
		return fmt.Errorf("%s kernels: %w", sp.name, err)
	}

	// Traced assured ops: two fifths of the budget, at least three.
	rec.prof = &profiler{ledger: make(cpuLedger)}
	ops, wall, err := s.repeatAssured(variant{}, rec, func(done int) bool {
		return done < 3 || time.Since(start) < budget*2/5
	})
	if err != nil {
		return err
	}
	last := ops[len(ops)-1]
	var verdict, decide []float64
	for _, a := range ops {
		verdict = append(verdict, a.verdictMs)
		decide = append(decide, a.decideMs)
	}
	if rec.prof.err != nil {
		return fmt.Errorf("%s cpu profile: %w", sp.name, rec.prof.err)
	}
	for layer, pct := range rec.prof.ledger.shares() {
		v.set("cpu_share."+layer, pct)
	}
	v.set("bench.trace_overhead_pct", 100*(median(wall)/base-1))
	v.med("core.verdict_ms", verdict)
	v.set("core.verdict_us_per_report", 1e3*median(verdict)/float64(last.res.DigestReports))
	v.med("core.decide_ms", decide)
	s.counts(last)

	// Control tier: timed inside the op where the workload has one, and
	// replayed over the op's verdict count where it has not.
	orderMs, virtOrderUs, batches := last.orderMs, last.virtOrderUs, last.batches
	if !sp.ordered {
		id := rec.begin("bft.order", 0)
		t0 := time.Now()
		virtOrderUs, batches, err = orderVerdicts(sp.cfg.F, last.res.DigestReports)
		orderMs = float64(time.Since(t0)) / 1e6
		rec.end(id)
		if err != nil {
			return fmt.Errorf("%s bft replay: %w", sp.name, err)
		}
	}
	v.set("bft.order_ms", orderMs)
	v.set("bft.invoke_us", 1e3*orderMs/float64(max(batches, 1)))
	v.set("bft.virt_order_ms", float64(virtOrderUs)/1e3)
	v.set("bft.batches", float64(batches))

	// Worker pool: serial task bodies against the default.
	if _, wall, err = s.repeatAssured(variant{workers: 1}, nil, func(done int) bool { return done < 3 }); err != nil {
		return err
	}
	v.set("pool.speedup_x", median(wall)/base)

	// Instrumentation left on: registry, DFS gauges and tracer attached.
	ops, wall, err = s.repeatAssured(variant{obs: true}, nil, func(done int) bool {
		return done < 3 || (done < 6 && time.Since(start) < budget)
	})
	if err != nil {
		return err
	}
	virt := ops[len(ops)-1].sys.tracer
	v.set("obs.overhead_pct", 100*(median(wall)/base-1))
	v.set("obs.spans", float64(virt.Len())+float64(virt.Dropped()))
	v.set("obs.spans_dropped", float64(virt.Dropped()))

	v.med("dfs.ingest_ms_p50", s.ingestMs)
	v.med("runtime.gc_cycles_per_op", s.gcCycles)
	v.med("runtime.gc_pause_ms_per_op", s.gcPauseMs)
	v.set("runtime.heap_inuse_peak_mb", slices.Max(s.heapInuse))
	v.set("bench.noise_pct", thirdsSpread(s.assuredWall))
	v.set("bench.samples", float64(len(s.assuredWall)))
	v.set("bench.plain_virt_latency_s", float64(s.plainVirtUs)/1e6)
	v.med("bench.assured_wall_raw_ms", s.assuredRaw)
	v.med("bench.plain_wall_raw_ms", s.plainRaw)
	v.med("bench.yardstick_ms", s.yardstick)

	return s.writeTrace(rec, virt)
}

// repeatAssured runs assured ops of one variant while more says so, each
// between two yardstick measurements, and returns them with their
// wall-clock in reference-host milliseconds. A failed op ends the pass.
func (s *session) repeatAssured(v variant, rec *recorder, more func(done int) bool) (ops []*assuredOp, wall []float64, err error) {
	for more(len(ops)) {
		before := s.yard()
		a := s.assured(v, rec)
		if a == nil {
			return nil, nil, fmt.Errorf("%s: assured op with %+v failed: %v", s.sp.name, v, s.failures)
		}
		ops = append(ops, a)
		wall = append(wall, a.wallMs*hostScale(before, s.yard()))
	}
	return ops, wall, nil
}

// counts reads the exact per-layer counts of one assured op. They are
// functions of the input, not of timing, so any op's will do.
func (s *session) counts(a *assuredOp) {
	v, m, fs := s.layers, a.res.Metrics, a.sys.fs
	v.set("mapred.map_tasks", float64(m.MapTasks))
	v.set("mapred.reduce_tasks", float64(m.ReduceTasks))
	v.set("mapred.records_in", float64(m.RecordsIn))
	v.set("mapred.records_out", float64(m.RecordsOut))
	v.set("mapred.shuffle_records", float64(m.ShuffleRecords))
	v.set("mapred.combined_records", float64(m.CombinedRecords))
	v.set("mapred.shuffle_mb", float64(m.LocalBytesWritten)/1e6)
	v.set("mapred.spec_tasks", float64(m.SpeculativeTasks))
	v.set("mapred.tasks_hung", float64(m.TasksHung))
	v.set("digest.records", float64(m.DigestRecords))
	v.set("digest.reports", float64(a.res.DigestReports))

	v.set("dfs.read_mb", float64(fs.BytesRead())/1e6)
	v.set("dfs.write_mb", float64(fs.BytesWritten())/1e6)
	v.set("dfs.blocks_spilled", float64(fs.SpilledBlocks()))
	v.set("dfs.spill_mb", float64(fs.SpillBytes())/1e6)
	v.set("dfs.max_resident_mb", float64(fs.MaxResidentBytes())/1e6)
	v.set("dfs.stored_raw_pct", float64(fs.CompressedRatio()))

	ck := a.sys.ctrl.CheckpointStats()
	b := a.sys.eng.Ledger.Buckets()
	total := float64(max(b.TotalUs(), 1))
	v.set("core.attempts", float64(a.res.Attempts))
	v.set("core.clusters", float64(a.res.Clusters))
	v.set("core.faulty_replicas", float64(a.res.FaultyReplicas))
	v.set("core.suspects", float64(len(a.res.Suspects)))
	v.set("core.ckpt_saves", float64(ck.Saves))
	v.set("core.ckpt_hits", float64(ck.Hits))
	v.set("core.committed_cpu_ratio", float64(b.CommittedUs)/total)
	v.set("core.recovery_cpu_ratio", float64(b.RecoveryRerunUs)/total)
}

// writeTrace writes the pass's spans, the CPU profile of every traced op
// and the engine's own virtual-time trace of the last obs-on op.
func (s *session) writeTrace(rec *recorder, virt *obs.Tracer) error {
	dir := s.opt.outDir
	if err := rec.writeJSONL(filepath.Join(dir, "trace-"+s.sp.name+".jsonl")); err != nil {
		return err
	}
	for i, raw := range rec.prof.raw {
		name := fmt.Sprintf("cpu-%s-%02d.pprof", s.sp.name, i+1)
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return err
		}
	}
	_, err := obs.WriteTraceFiles(virt, filepath.Join(dir, "virt-"+s.sp.name+".json"))
	return err
}
