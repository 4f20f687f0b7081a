// Command pigrun executes a PigLatin-subset script on the simulated
// MapReduce engine without replication or verification — the "Pure Pig"
// baseline — and prints the outputs.
//
// Usage:
//
//	pigrun -script q.pig -input data/edges=edges.tsv [-nodes 8] [-slots 3] [-show 20]
//	       [-combine=on|off] [-verify-policy=full|quiz|deferred|auto]
//	       [-block-size N] [-mem-budget 64m] [-spill-dir DIR] [-compress]
//	       [--trace=run.json] [--metrics] [-http :8080] [-http-linger]
//
// -verify-policy leaves the baseline but runs the script under the BFT
// controller with the given verification policy, so the same command
// line can A/B the pure cost against each policy's 1+ε overhead.
// --trace writes a Chrome trace_event JSON timeline (loadable in
// chrome://tracing or Perfetto) plus a deterministic JSONL twin;
// --metrics prints the full metrics registry after the run. -http
// serves the live introspection plane while the run executes: /metrics
// (Prometheus exposition), /healthz, /jobs and /jobs/{id} (JSON
// progress, verification and cost-ledger state), /jobs/{id}/stragglers,
// /trace (span ring as JSONL) and /debug/pprof. -http-linger keeps the
// endpoints up after the run completes, until SIGINT/SIGTERM.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

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
		fmt.Fprintln(os.Stderr, "pigrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var inputs repeated
	script := flag.String("script", "", "path to the Pig script (required)")
	flag.Var(&inputs, "input", "dfspath=localfile input mapping (repeatable)")
	nodes := flag.Int("nodes", 8, "cluster size")
	slots := flag.Int("slots", 3, "task slots per node")
	reduces := flag.Int("reduces", 2, "reduce parallelism")
	combine := flag.String("combine", "on", "map-side combiners: on or off (outputs are identical either way)")
	policyName := flag.String("verify-policy", "", "run under the BFT controller with this verification policy: full, quiz, deferred or auto (default: no verification)")
	checkpoint := flag.Bool("checkpoint", false, "with -verify-policy full: persist verified interior outputs as checkpoints so retries re-execute only the DAG suffix, and arm quantile straggler re-launch")
	show := flag.Int("show", 20, "output records to print per store")
	explain := flag.Bool("explain", false, "print the logical plan and compiled jobs, then exit")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline here (a .jsonl twin is written next to it)")
	metrics := flag.Bool("metrics", false, "print the metrics registry after the run")
	httpAddr := flag.String("http", "", "serve live introspection (/metrics, /healthz, /jobs, /trace, pprof) on this address, e.g. :8080")
	httpLinger := flag.Bool("http-linger", false, "with -http: keep serving introspection after the run completes, until interrupted")
	storageFlags := dfs.Flags(flag.CommandLine)
	flag.Parse()

	if *script == "" {
		return fmt.Errorf("-script is required")
	}
	src, err := os.ReadFile(*script)
	if err != nil {
		return err
	}
	plan, err := pig.Parse(string(src))
	if err != nil {
		return err
	}
	if *combine != "on" && *combine != "off" {
		return fmt.Errorf("bad -combine %q (want on or off)", *combine)
	}
	policy, err := core.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	jobs, err := mapred.Compile(plan, mapred.CompileOptions{
		NumReduces:     *reduces,
		DisableCombine: *combine == "off",
	})
	if err != nil {
		return err
	}
	if *explain {
		fmt.Println("logical plan:")
		fmt.Print(plan.String())
		fmt.Println("\ncompiled jobs:")
		for _, j := range jobs {
			fmt.Printf("  %v deps=%v\n", j, j.Deps)
		}
		return nil
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
		fh, err := os.Open(local)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			return err
		}
		fs.Append(dfsPath, lines...)
	}

	for _, v := range plan.Loads() {
		if !fs.Exists(v.Path) && len(fs.List(v.Path)) == 0 {
			return fmt.Errorf("LOAD %q has no data; add -input %s=<file>", v.Path, v.Path)
		}
	}

	eng := mapred.NewEngine(fs, cluster.New(*nodes, *slots), nil, mapred.DefaultCostModel())
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
	// outPath maps a STORE path to where its records actually live: the
	// script's own path on the baseline, the controller's verified copy
	// under -verify-policy.
	outPath := func(store string) string { return store }

	if *policyName != "" {
		cfg := core.DefaultConfig()
		cfg.VerifyPolicy = policy
		cfg.NumReduces = *reduces
		cfg.DisableCombine = *combine == "off"
		cfg.Storage = storage
		cfg.Checkpoint = *checkpoint
		if *checkpoint {
			eng.Speculation = true
			eng.SpecQuantile = 0.95
		}
		susp := core.NewSuspicionTable(cfg.SuspicionThreshold)
		eng.Sched = core.NewOverlapScheduler(susp)
		ctrl := core.NewController(eng, cfg, susp, nil)
		res, err := ctrl.Run(string(src))
		if err != nil {
			return err
		}
		fmt.Printf("verified: %v (policy %s)   latency: %.2fs (virtual)   cpu: %.2fs   quizzes: %d\n",
			res.Verified, policy, float64(res.LatencyUs)/1e6,
			float64(res.Metrics.CPUTimeUs)/1e6, eng.QuizTasks)
		outPath = func(store string) string { return res.Outputs[store] }
	} else {
		states := make([]*mapred.JobState, 0, len(jobs))
		for _, j := range jobs {
			js, err := eng.Submit(j)
			if err != nil {
				return err
			}
			states = append(states, js)
		}
		eng.Run()

		var makespan int64
		for _, js := range states {
			if !js.Done {
				return fmt.Errorf("job %s did not complete", js.Spec.ID)
			}
			if js.DoneTime > makespan {
				makespan = js.DoneTime
			}
		}
		fmt.Printf("latency: %.2fs (virtual)   cpu: %.2fs   jobs: %d\n",
			float64(makespan)/1e6, float64(eng.Metrics.CPUTimeUs)/1e6, eng.Metrics.JobsCompleted)
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

	for _, st := range plan.Stores() {
		lines, err := fs.ReadTree(outPath(st.Path))
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (%d records):\n", st.Path, len(lines))
		for i, l := range lines {
			if i >= *show {
				fmt.Printf("  ... %d more\n", len(lines)-i)
				break
			}
			fmt.Println(" ", l)
		}
	}

	// -http-linger keeps the introspection endpoints live after the run
	// so scripts (and the CI smoke check) can scrape the final state.
	if *httpAddr != "" && *httpLinger {
		fmt.Println("lingering: introspection stays up until SIGINT/SIGTERM")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	return nil
}
