// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-exp all|fig9|fig10|table3|fig11|fig12|fig13|fig14|recovery|verifycost|outofcore]
//	            [-scale small|paper] [-verify-policy=full|quiz|deferred|auto] [-checkpoint]
//	            [-block-size N] [-mem-budget 64m] [-spill-dir DIR] [-compress]
//	            [--trace=run.json] [--metrics] [-http :8080]
//
// Each experiment prints rows shaped like the paper's (§6); see
// EXPERIMENTS.md for the mapping and the expected shapes. The flags
// from -verify-policy on are the ones every command shares
// (internal/cli): the policy, checkpointing and DFS block data plane of
// every controller and rig the experiments build; --trace collects every
// engine run's spans into one Chrome trace_event timeline (plus a .jsonl
// twin); --metrics prints the accumulated registry after all selected
// experiments. -http serves the live introspection plane (/metrics,
// /healthz, /jobs, /trace, pprof) while the experiments run; the
// registry and jobs board are shared across every engine the
// experiments construct, and the /jobs cost buckets reflect the engine
// currently executing.
package main

import (
	"flag"
	"fmt"
	"os"

	"clusterbft/internal/cli"
	"clusterbft/internal/core"
	"clusterbft/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig9, fig10, table3, fig11, fig12, fig13, fig14, recovery, verifycost, outofcore")
	scaleName := flag.String("scale", "small", "workload scale: small or paper")
	shared := cli.Bind(flag.CommandLine)
	flag.Parse()

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
	sc.Core = core.DefaultConfig()
	if err := shared.Apply(&sc.Core); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	plane, err := shared.Start(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer plane.Close()
	sc.Observe = plane.Attach

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

	if err := plane.Report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type renderer interface{ Render() string }

func render(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
