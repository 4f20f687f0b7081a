// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig9|fig10|table3|fig11|fig12|fig13|fig14|recovery|verifycost|outofcore]
//	            [-scale small|paper] [-combine=on|off] [-verify-policy=full|quiz|deferred|auto]
//	            [-block-size N] [-mem-budget 64m] [-spill-dir DIR] [-compress]
//	            [--trace=run.json] [--metrics] [-http :8080]
//
// Each experiment prints rows shaped like the paper's (§6); see
// EXPERIMENTS.md for the mapping and the expected shapes. --trace
// collects every engine run's spans into one Chrome trace_event timeline
// (plus a .jsonl twin); --metrics prints the accumulated registry after
// all selected experiments. -http serves the live introspection plane
// (/metrics, /healthz, /jobs, /trace, pprof) while the experiments run;
// the registry and jobs board are shared across every engine the
// experiments construct, and the /jobs cost buckets reflect the engine
// currently executing.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"

	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/experiments"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/obs/introspect"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig9, fig10, table3, fig11, fig12, fig13, fig14, recovery, verifycost, outofcore")
	scaleName := flag.String("scale", "small", "workload scale: small or paper")
	combine := flag.String("combine", "on", "map-side combiners: on or off (results are identical either way; latencies differ)")
	policyName := flag.String("verify-policy", "", "verification policy for every figure's controllers: full, quiz, deferred or auto (default: full)")
	checkpoint := flag.Bool("checkpoint", false, "enable checkpoint-granular recovery and quantile straggler re-launch in every controller the experiments build")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON timeline here (a .jsonl twin is written next to it)")
	metrics := flag.Bool("metrics", false, "print the accumulated metrics registry after the experiments")
	httpAddr := flag.String("http", "", "serve live introspection (/metrics, /healthz, /jobs, /trace, pprof) on this address, e.g. :8080")
	storageFlags := dfs.Flags(flag.CommandLine)
	flag.Parse()

	var reg *obs.Registry
	var tracer *obs.Tracer
	var board *obs.JobsBoard
	var cur atomic.Pointer[mapred.Engine]
	if *metrics || *httpAddr != "" {
		reg = obs.NewRegistry()
	}
	if *traceFile != "" || *httpAddr != "" {
		tracer = obs.NewTracer(0)
		if *traceFile != "" {
			tracer.EnableWallClock(obs.WallUnixMicros)
		}
	}
	if *httpAddr != "" {
		board = obs.NewJobsBoard()
	}
	if reg != nil || tracer != nil || board != nil {
		experiments.Observe = func(e *mapred.Engine) {
			e.InstrumentMetrics(reg)
			e.Trace = tracer
			e.Board = board
			cur.Store(e)
		}
	}
	if *httpAddr != "" {
		srv, err := introspect.Start(*httpAddr, introspect.Options{
			Registry: reg,
			Tracer:   tracer,
			Board:    board,
			Cost: func() any {
				if e := cur.Load(); e != nil {
					return e.Ledger.Buckets()
				}
				return nil
			},
			SIDCost: func(sid string) (any, bool) {
				if e := cur.Load(); e != nil {
					if b, ok := e.Ledger.SIDBuckets(sid); ok {
						return b, true
					}
				}
				return nil, false
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("introspection: %s\n", srv.URL())
	}

	var sc experiments.Scale
	switch *scaleName {
	case "small":
		sc = experiments.Small()
	case "paper":
		sc = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	switch *combine {
	case "on":
	case "off":
		sc.DisableCombine = true
	default:
		fmt.Fprintf(os.Stderr, "bad -combine %q (want on or off)\n", *combine)
		os.Exit(2)
	}
	policy, err := core.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.VerifyPolicy = policy
	sc.Checkpoint = *checkpoint
	sc.Storage, err = storageFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	runners := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig9", func() (string, error) { r, err := experiments.Fig9(sc); return render(r, err) }},
		{"fig10", func() (string, error) { r, err := experiments.Fig10(sc); return render(r, err) }},
		{"table3", func() (string, error) { r, err := experiments.Table3(sc); return render(r, err) }},
		{"fig11", func() (string, error) { return experiments.Fig11(sc).Render(), nil }},
		{"fig12", func() (string, error) { return experiments.Fig12(sc).Render(), nil }},
		{"fig13", func() (string, error) { return experiments.Fig13(sc).Render(), nil }},
		{"fig14", func() (string, error) { r, err := experiments.Fig14(sc); return render(r, err) }},
		{"recovery", func() (string, error) { r, err := experiments.Recovery(); return render(r, err) }},
		{"verifycost", func() (string, error) { r, err := experiments.VerifyCost(sc); return render(r, err) }},
		{"outofcore", func() (string, error) { r, err := experiments.OutOfCore(sc); return render(r, err) }},
	}

	matched := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		matched = true
		out, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *traceFile != "" {
		twin, err := obs.WriteTraceFiles(tracer, *traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (chrome://tracing, Perfetto)  jsonl: %s  spans: %d  dropped: %d\n",
			*traceFile, twin, tracer.Len(), tracer.Dropped())
	}
	if *metrics {
		fmt.Printf("\nmetrics:\n%s", reg.RenderText())
	}
}

type renderer interface{ Render() string }

func render(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
