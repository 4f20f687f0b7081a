// Command faultsim drives the fault-isolation simulator of §6.3: a
// 250-node cluster running replicated jobs with Byzantine nodes, printing
// how quickly the fault analyzer narrows suspicion to the faulty nodes.
//
// Usage:
//
//	faultsim [-p 0.6] [-f 1] [-mix r1|r2|large] [-time 300] [-seed 1] [-trials 1]
//	         [-timeline 40] [--trace=run.json] [--metrics]
//
// -timeline prints the suspicion convergence timeline — every digest
// mismatch, intersection/exoneration step, and conviction, stamped with
// the simulator tick it happened at. --trace exports the same audit
// trail as a Chrome trace_event timeline (one row per event kind, plus a
// .jsonl twin); --metrics prints run counters as a registry snapshot.
//
// A second mode drives the deterministic fault-injection subsystem
// instead of the suspicion simulator:
//
//	faultsim -chaos [-seed 7]        one seeded schedule end-to-end
//	faultsim -campaign 200 [-seed 1] N schedules with invariant checks
//
// In chaos mode -http serves the live introspection plane (/metrics,
// /healthz, /jobs, /trace, pprof) while the campaign runs; the registry,
// jobs board and trace ring are shared across schedules, so a long
// campaign can be watched converge. The cost buckets shown under /jobs
// are the currently-running schedule's ledger.
//
// Both print the schedule(s), recovery actions and invariant outcomes;
// the same seed always reproduces the same report byte-for-byte.
// -verify-policy=full|quiz|deferred|auto runs the campaign's controllers
// under that verification policy (quiz/deferred sample at fraction 1 so
// every commission fault is quizzable). The storage flags (-block-size,
// -mem-budget, -spill-dir, -compress) configure the chaos runs' DFS
// block data plane; reports are byte-identical at any setting. The
// suspicion simulator has no engine, controller or storage layer: of
// the shared flags (internal/cli) it reads only --trace and --metrics,
// for its own audit-trail export.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"clusterbft/internal/analyze"
	"clusterbft/internal/chaos"
	"clusterbft/internal/cli"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/faultsim"
	"clusterbft/internal/obs"
)

func main() {
	p := flag.Float64("p", 0.6, "commission probability of a faulty node")
	f := flag.Int("f", 1, "tolerated faults (replicas = 3f+1)")
	mixName := flag.String("mix", "r1", "job size mix: r1 (6:3:1), r2 (2:2:1) or large")
	simTime := flag.Int("time", 300, "simulated ticks")
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 1, "averaging trials for jobs-to-isolate")
	timeline := flag.Int("timeline", 0, "print the last N suspicion audit events (-1 = all, 0 = off)")
	chaosRun := flag.Bool("chaos", false, "run one seeded fault-injection schedule end-to-end (uses -seed)")
	campaign := flag.Int("campaign", 0, "run N seeded fault-injection schedules with invariant checks (uses -seed as base)")
	shared := cli.Bind(flag.CommandLine)
	flag.Parse()

	if *chaosRun || *campaign > 0 {
		cfg := chaos.DefaultCampaign()
		cfg.BaseSeed = *seed
		cfg.Schedules = *campaign
		if *chaosRun && *campaign <= 0 {
			cfg.Schedules = 1
		}
		if err := shared.Apply(&cfg.Core); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		if cfg.Core.VerifyPolicy != core.PolicyFull {
			cfg.Core.QuizFraction = 1
		}
		plane, err := shared.Start(os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(2)
		}
		defer plane.Close()
		cfg.Observe = plane.Attach
		rep, err := chaos.RunCampaign(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		if err := plane.Report(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		if len(rep.Violations()) > 0 {
			os.Exit(1)
		}
		return
	}

	var mix faultsim.Mix
	switch *mixName {
	case "r1":
		mix = faultsim.R1
	case "r2":
		mix = faultsim.R2
	case "large":
		mix = faultsim.Mix{Large: 10, Medium: 1, Small: 1}
	default:
		fmt.Fprintf(os.Stderr, "unknown mix %q\n", *mixName)
		os.Exit(2)
	}

	cfg := faultsim.Config{
		F:              *f,
		CommissionProb: *p,
		Mix:            mix,
		MaxTime:        *simTime,
		Seed:           *seed,
	}

	if *trials > 1 {
		avg := faultsim.JobsToIsolate(cfg, *trials)
		fmt.Printf("avg jobs until |D|=f over %d trials: %.1f\n", *trials, avg)
		return
	}

	res := faultsim.Run(cfg)
	fmt.Printf("jobs completed:      %d\n", res.JobsCompleted)
	fmt.Printf("faults observed:     %d\n", res.FaultsObserved)
	fmt.Printf("|D|=f after:         %d jobs (t=%d)\n", res.JobsAtSaturation, res.TimeAtSaturation)
	fmt.Printf("true faulty nodes:   %v\n", res.TrueFaulty)
	fmt.Printf("final suspects:      %v\n", res.Suspects)
	fmt.Printf("exactly isolated:    %v\n", res.Isolated)
	fmt.Println("\nsuspicion population (every 15 ticks):")
	fmt.Println("time  low  med  high")
	for _, s := range res.Samples {
		if s.Time%15 == 0 {
			fmt.Printf("%4d  %3d  %3d  %4d\n", s.Time, s.Low, s.Med, s.High)
		}
	}

	if *timeline != 0 {
		max := *timeline
		if max < 0 {
			max = 0 // RenderTimeline treats <= 0 as "everything"
		}
		fmt.Printf("\nsuspicion convergence timeline (%d events, t = simulator tick):\n%s",
			len(res.Timeline), res.RenderTimeline(max))
	}
	if shared.Trace != "" {
		twin, err := obs.WriteTraceFiles(auditTracer(res.Timeline), shared.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %s (chrome://tracing, Perfetto)  jsonl: %s  events: %d\n",
			shared.Trace, twin, len(res.Timeline))
	}
	if shared.Metrics {
		reg := obs.NewRegistry()
		reg.Counter("faultsim.jobs_completed").Add(int64(res.JobsCompleted))
		reg.Counter("faultsim.faults_observed").Add(int64(res.FaultsObserved))
		reg.Counter("faultsim.probes_launched").Add(int64(res.ProbesLaunched))
		reg.Counter("faultsim.audit_events").Add(int64(len(res.Timeline)))
		for _, e := range res.Timeline {
			reg.Counter("faultsim.audit." + e.Kind.String()).Inc()
		}
		fmt.Printf("\nmetrics:\n%s", reg.RenderText())
	}
}

// auditTracer converts the run's audit trail into instant spans, one
// trace row per event kind, so the convergence shows up as vertical
// streaks in Perfetto (ts is the simulator tick).
func auditTracer(events []analyze.AuditEvent) *obs.Tracer {
	tr := obs.NewTracer(len(events))
	for _, e := range events {
		attrs := make([]obs.Attr, 0, 3)
		attrs = append(attrs, obs.A("nodes", joinNodes(e.Nodes)))
		if len(e.Removed) > 0 {
			attrs = append(attrs, obs.A("exonerated", joinNodes(e.Removed)))
		}
		if e.Detail != "" {
			attrs = append(attrs, obs.A("detail", e.Detail))
		}
		tr.Record("suspicion", e.Kind.String(), e.Kind.String(), e.T, e.T, attrs...)
	}
	return tr
}

func joinNodes(ids []cluster.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}
