// Command clusterbft runs a PigLatin-subset script under Byzantine fault
// tolerant protection on a simulated cluster (the untrusted tier), and
// prints the verified outputs plus fault-isolation results.
//
// Usage:
//
//	clusterbft -script q.pig -input data/edges=edges.tsv \
//	    [-f 1] [-r 4] [-points 2] [-nodes 16] [-slots 3] [-reduces 2] \
//	    [-d 0] [-final-only] [-faulty node-003:commission:1.0] [-show 20]
//	    [-verify-policy=full|quiz|deferred|auto|none] [-checkpoint] [-explain]
//	    [-block-size N] [-mem-budget 64m] [-spill-dir DIR] [-compress]
//	    [--trace=run.json] [--metrics] [-http :8080] [-http-linger]
//
// Inputs are tab-separated local files copied into the trusted in-memory
// DFS at the path the script LOADs. -faulty attaches an adversary to a
// node (kind: commission or omission; probability in [0,1]) and may be
// repeated. -verify-policy none leaves the controller out and runs the
// script once, unreplicated and unverified — the "Pure Pig" baseline —
// so one command line can A/B the pure cost against each policy's
// overhead; with it, -explain prints the logical plan and compiled jobs
// and exits. The flags from -verify-policy to -http are shared with
// experiments and faultsim and documented in internal/cli; -http-linger
// keeps the -http endpoints up after the run, until SIGINT/SIGTERM.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"clusterbft/internal/cli"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "clusterbft:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("clusterbft", flag.ContinueOnError)
	var inputs, faulty repeated
	script := fset.String("script", "", "path to the Pig script (required)")
	fset.Var(&inputs, "input", "dfspath=localfile input mapping (repeatable)")
	fset.Var(&faulty, "faulty", "node:kind:probability adversary (repeatable)")
	cfg := core.DefaultConfig()
	fset.IntVar(&cfg.F, "f", cfg.F, "tolerated faults")
	fset.IntVar(&cfg.R, "r", cfg.R, "replication degree (f+1, 2f+1 or 3f+1)")
	fset.IntVar(&cfg.Points, "points", cfg.Points, "verification points (-1: every candidate vertex)")
	nodes := fset.Int("nodes", 16, "untrusted tier size")
	slots := fset.Int("slots", 3, "task slots per node")
	fset.IntVar(&cfg.NumReduces, "reduces", cfg.NumReduces, "reduce parallelism")
	fset.IntVar(&cfg.DigestChunk, "d", cfg.DigestChunk, "digest granularity: records per digest (0: per stream)")
	fset.BoolVar(&cfg.VerifyFinalOnly, "final-only", cfg.VerifyFinalOnly, "verify final outputs only (the P baseline)")
	show := fset.Int("show", 20, "output records to print per store")
	explain := fset.Bool("explain", false, "print the replication structure after the run; with -verify-policy none, print the logical plan and compiled jobs and exit")
	httpLinger := fset.Bool("http-linger", false, "with -http: keep serving introspection after the run completes, until interrupted")
	shared := cli.Bind(fset)
	if err := fset.Parse(args); err != nil {
		return err
	}

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
	if *nodes < 1 || *slots < 1 {
		return fmt.Errorf("-nodes %d -slots %d: want at least 1 of each", *nodes, *slots)
	}

	// "none" is this command's own: the unverified baseline is not a
	// verification policy, so core.Policy has no value for it.
	baseline := shared.VerifyPolicy == "none"
	if baseline {
		if shared.Checkpoint {
			return fmt.Errorf("-checkpoint needs a verifying -verify-policy, not none")
		}
		cfg.Storage, err = shared.Storage()
	} else {
		err = shared.Apply(&cfg)
	}
	if err != nil {
		return err
	}
	compileOpts := mapred.CompileOptions{NumReduces: cfg.NumReduces}
	if baseline && *explain {
		jobs, err := mapred.Compile(plan, compileOpts)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "logical plan:")
		fmt.Fprint(stdout, plan.String())
		fmt.Fprintln(stdout, "\ncompiled jobs:")
		for _, j := range jobs {
			fmt.Fprintf(stdout, "  %v deps=%v\n", j, j.Deps)
		}
		return nil
	}

	sys := core.NewSystem(*nodes, *slots, cfg.Storage, mapred.DefaultCostModel())
	fs := sys.FS
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
	if err := checkLoadPaths(fs, plan); err != nil {
		return err
	}

	for _, spec := range faulty {
		if err := attachAdversary(sys.Cluster, spec); err != nil {
			return err
		}
	}
	eng := sys.Engine
	plane, err := shared.Start(stdout)
	if err != nil {
		return err
	}
	defer plane.Close()
	plane.Attach(eng)

	// outputs maps each STORE path to where its records live: the
	// script's own path on the baseline, the verified winner replica's
	// copy under a controller.
	outputs := make(map[string]string)
	if baseline {
		lat, err := core.RunPlainOpts(eng, string(src), compileOpts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "latency: %.2fs (virtual)   cpu: %.2fs   jobs: %d\n",
			float64(lat)/1e6, float64(eng.Metrics.CPUTimeUs)/1e6, eng.Metrics.JobsCompleted)
		for _, st := range plan.Stores() {
			outputs[st.Path] = st.Path
		}
	} else {
		ctrl := sys.Assure(cfg)
		res, err := ctrl.Run(string(src))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "verified:        %v\n", res.Verified)
		fmt.Fprintf(stdout, "latency:         %.2fs (virtual)\n", float64(res.LatencyUs)/1e6)
		fmt.Fprintf(stdout, "sub-graphs:      %d (attempts: %d)\n", res.Clusters, res.Attempts)
		fmt.Fprintf(stdout, "points:          %v\n", res.PointsUsed)
		fmt.Fprintf(stdout, "digest reports:  %d\n", res.DigestReports)
		fmt.Fprintf(stdout, "faulty replicas: %d\n", res.FaultyReplicas)
		if len(res.Suspects) > 0 {
			fmt.Fprintf(stdout, "suspects:        %v\n", res.Suspects)
		}
		m := res.Metrics
		fmt.Fprintf(stdout, "cpu time:        %.2fs   hdfs r/w: %d/%d B   shuffle r/w: %d/%d B\n",
			float64(m.CPUTimeUs)/1e6, m.HDFSBytesRead, m.HDFSBytesWritten, m.LocalBytesRead, m.LocalBytesWritten)
		if *explain {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, ctrl.Explain())
		}
		outputs = res.Outputs
	}
	if err := plane.Report(stdout); err != nil {
		return err
	}

	for _, store := range slices.Sorted(maps.Keys(outputs)) {
		lines, err := fs.ReadTree(outputs[store])
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s (%d records):\n", store, len(lines))
		for i, l := range lines {
			if i >= *show {
				fmt.Fprintf(stdout, "  ... %d more\n", len(lines)-i)
				break
			}
			fmt.Fprintln(stdout, " ", l)
		}
	}

	// -http-linger keeps the introspection endpoints live after the run
	// so scripts (and the CI smoke check) can scrape the final state.
	if shared.HTTP != "" && *httpLinger {
		fmt.Fprintln(stdout, "lingering: introspection stays up until SIGINT/SIGTERM")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
	return nil
}

// checkLoadPaths warns about LOAD paths with no data: the engine treats
// missing inputs as empty (legitimate for intermediate outputs), but for
// a CLI run an empty source is almost always a typo in -input.
func checkLoadPaths(fs *dfs.FS, plan *pig.Plan) error {
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
	if !(p >= 0 && p <= 1) { // also rejects NaN
		return fmt.Errorf("bad probability in %q: want a number in [0,1]", spec)
	}
	return cl.SetAdversary(cluster.NodeID(parts[0]), kind, p, 42)
}
