// Command clusterbft runs a PigLatin-subset script under Byzantine fault
// tolerant protection on a simulated cluster (the untrusted tier), and
// prints the verified outputs plus fault-isolation results.
//
// Usage:
//
//	clusterbft -script q.pig -input data/edges=edges.tsv \
//	    [-f 1] [-r 4] [-points 2] [-nodes 16] [-slots 3] \
//	    [-d 0] [-final-only] [-faulty node-003:commission:1.0] [-show 20]
//	    [-verify-policy=full|quiz|deferred|auto] [-explain]
//	    [-block-size N] [-mem-budget 64m] [-spill-dir DIR] [-compress]
//	    [--trace=run.json] [--metrics] [-http :8080]
//
// Inputs are tab-separated local files copied into the trusted in-memory
// DFS at the path the script LOADs. -faulty attaches an adversary to a
// node (kind: commission or omission; probability in [0,1]) and may be
// repeated. --trace/--metrics/-http are the observability flags shared
// with pigrun, experiments and faultsim: trace timeline export, metrics
// registry dump, and the live HTTP introspection plane (/metrics,
// /healthz, /jobs, /trace, pprof).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/obs/introspect"
	"clusterbft/internal/pig"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbft:", err)
		os.Exit(1)
	}
}

func run() error {
	var inputs, faulty repeated
	script := flag.String("script", "", "path to the Pig script (required)")
	flag.Var(&inputs, "input", "dfspath=localfile input mapping (repeatable)")
	flag.Var(&faulty, "faulty", "node:kind:probability adversary (repeatable)")
	f := flag.Int("f", 1, "tolerated faults")
	r := flag.Int("r", 4, "replication degree (f+1, 2f+1 or 3f+1)")
	points := flag.Int("points", 2, "verification points (-1: every candidate vertex)")
	nodes := flag.Int("nodes", 16, "untrusted tier size")
	slots := flag.Int("slots", 3, "task slots per node")
	d := flag.Int("d", 0, "digest granularity: records per digest (0: per stream)")
	finalOnly := flag.Bool("final-only", false, "verify final outputs only (the P baseline)")
	policyName := flag.String("verify-policy", "full", "verification policy: full, quiz, deferred or auto")
	checkpoint := flag.Bool("checkpoint", false, "persist verified interior outputs as checkpoints so retries re-execute only the DAG suffix, and arm quantile straggler re-launch")
	show := flag.Int("show", 20, "output records to print per store")
	explain := flag.Bool("explain", false, "print the replication structure after the run")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline here (a .jsonl twin is written next to it)")
	metrics := flag.Bool("metrics", false, "print the metrics registry after the run")
	httpAddr := flag.String("http", "", "serve live introspection (/metrics, /healthz, /jobs, /trace, pprof) on this address, e.g. :8080")
	storageFlags := dfs.Flags(flag.CommandLine)
	flag.Parse()

	if *script == "" {
		return fmt.Errorf("-script is required")
	}
	src, err := os.ReadFile(*script)
	if err != nil {
		return err
	}

	storage, err := storageFlags()
	if err != nil {
		return err
	}
	fs := dfs.NewWith(storage)
	defer fs.Close()
	for _, in := range inputs {
		dfsPath, local, ok := strings.Cut(in, "=")
		if !ok {
			return fmt.Errorf("bad -input %q (want dfspath=localfile)", in)
		}
		if err := loadFile(fs, dfsPath, local); err != nil {
			return err
		}
	}

	cl := cluster.New(*nodes, *slots)
	for _, spec := range faulty {
		if err := attachAdversary(cl, spec); err != nil {
			return err
		}
	}

	cfg := core.DefaultConfig()
	cfg.F = *f
	cfg.R = *r
	cfg.Points = *points
	cfg.DigestChunk = *d
	cfg.VerifyFinalOnly = *finalOnly
	cfg.VerifyPolicy, err = core.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	cfg.Storage = storage
	cfg.Checkpoint = *checkpoint
	susp := core.NewSuspicionTable(cfg.SuspicionThreshold)
	eng := mapred.NewEngine(fs, cl, core.NewOverlapScheduler(susp), mapred.DefaultCostModel())
	if *checkpoint {
		eng.Speculation = true
		eng.SpecQuantile = 0.95
	}
	ctrl := core.NewController(eng, cfg, susp, nil)

	var reg *obs.Registry
	if *metrics || *httpAddr != "" {
		reg = obs.NewRegistry()
		eng.InstrumentMetrics(reg)
	}
	var tracer *obs.Tracer
	if *traceFile != "" || *httpAddr != "" {
		tracer = obs.NewTracer(0)
		if *traceFile != "" {
			tracer.EnableWallClock(obs.WallUnixMicros)
		}
		eng.Trace = tracer
	}
	if *httpAddr != "" {
		eng.Board = obs.NewJobsBoard()
		srv, err := introspect.Start(*httpAddr, introspect.Options{
			Registry: reg,
			Tracer:   tracer,
			Board:    eng.Board,
			Cost:     func() any { return eng.Ledger.Buckets() },
			SIDCost: func(sid string) (any, bool) {
				b, ok := eng.Ledger.SIDBuckets(sid)
				return b, ok
			},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection: %s\n", srv.URL())
	}

	if err := checkLoadPaths(fs, string(src)); err != nil {
		return err
	}

	res, err := ctrl.Run(string(src))
	if err != nil {
		return err
	}

	fmt.Printf("verified:        %v\n", res.Verified)
	fmt.Printf("latency:         %.2fs (virtual)\n", float64(res.LatencyUs)/1e6)
	fmt.Printf("sub-graphs:      %d (attempts: %d)\n", res.Clusters, res.Attempts)
	fmt.Printf("points:          %v\n", res.PointsUsed)
	fmt.Printf("digest reports:  %d\n", res.DigestReports)
	fmt.Printf("faulty replicas: %d\n", res.FaultyReplicas)
	if len(res.Suspects) > 0 {
		fmt.Printf("suspects:        %v\n", res.Suspects)
	}
	m := res.Metrics
	fmt.Printf("cpu time:        %.2fs   hdfs r/w: %d/%d B   shuffle r/w: %d/%d B\n",
		float64(m.CPUTimeUs)/1e6, m.HDFSBytesRead, m.HDFSBytesWritten, m.LocalBytesRead, m.LocalBytesWritten)
	if *explain {
		fmt.Println()
		fmt.Print(ctrl.Explain())
	}
	if *traceFile != "" {
		twin, err := obs.WriteTraceFiles(tracer, *traceFile)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %s (chrome://tracing, Perfetto)  jsonl: %s  spans: %d  dropped: %d\n",
			*traceFile, twin, tracer.Len(), tracer.Dropped())
	}
	if *metrics {
		fmt.Printf("\nmetrics:\n%s", reg.RenderText())
	}

	var stores []string
	for store := range res.Outputs {
		stores = append(stores, store)
	}
	sort.Strings(stores)
	for _, store := range stores {
		lines, err := fs.ReadTree(res.Outputs[store])
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (%d records):\n", store, len(lines))
		for i, l := range lines {
			if i >= *show {
				fmt.Printf("  ... %d more\n", len(lines)-i)
				break
			}
			fmt.Println(" ", l)
		}
	}
	return nil
}

// checkLoadPaths warns about LOAD paths with no data: the engine treats
// missing inputs as empty (legitimate for intermediate outputs), but for
// a CLI run an empty source is almost always a typo in -input.
func checkLoadPaths(fs *dfs.FS, src string) error {
	plan, err := pig.Parse(src)
	if err != nil {
		return err
	}
	for _, v := range plan.Loads() {
		if !fs.Exists(v.Path) && len(fs.List(v.Path)) == 0 {
			return fmt.Errorf("LOAD %q has no data; add -input %s=<file>", v.Path, v.Path)
		}
	}
	return nil
}

func loadFile(fs *dfs.FS, dfsPath, local string) error {
	fh, err := os.Open(local)
	if err != nil {
		return err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fs.Append(dfsPath, lines...)
	return nil
}

func attachAdversary(cl *cluster.Cluster, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return fmt.Errorf("bad -faulty %q (want node:kind:probability)", spec)
	}
	var kind cluster.FaultKind
	switch parts[1] {
	case "commission":
		kind = cluster.FaultCommission
	case "omission":
		kind = cluster.FaultOmission
	default:
		return fmt.Errorf("unknown fault kind %q", parts[1])
	}
	p, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return fmt.Errorf("bad probability in %q: %v", spec, err)
	}
	return cl.SetAdversary(cluster.NodeID(parts[0]), kind, p, 42)
}
