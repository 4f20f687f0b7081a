// Command bench measures what ClusterBFT's assurance costs over plain
// execution, in real time, on five seeded workloads, and says where the
// time goes layer by layer. See README.md for the metric glossary, the
// workloads and how to read the output.
//
//	bash bench/run.sh                                  # all workloads, both passes, bench/out/bench.json
//	bash bench/run.sh -workload etl_spill -trace 0     # one workload, end-to-end metrics only
//	bash bench/run.sh -compare a.json b.json           # apply the regression bounds to two reports
//
// With a single -workload the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics, which is
// what BENCHMARK.json's driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// provenance says what produced a report, so two reports are compared
// knowingly.
type provenance struct {
	Seed       int64   `json:"seed"`
	ScalePct   int     `json:"scale_pct"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	CPUModel   string  `json:"cpu_model"`
	Rounds     int     `json:"rounds"`
	SetupReps  int     `json:"setup_reps"`
	StartedAt  string  `json:"started_at"`
}

// workloadReport is one workload's section of a report.
type workloadReport struct {
	Name         string   `json:"name"`
	Why          string   `json:"why"`
	InputRecords int      `json:"input_records"`
	InputBytes   int64    `json:"input_bytes"`
	AssuredOps   int      `json:"assured_ops"`
	PlainOps     int      `json:"plain_ops"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
	EndToEnd     values   `json:"end_to_end"`
	PerLayer     values   `json:"per_layer,omitempty"`
}

// report is what a run writes to <out>/bench.json and -compare reads.
type report struct {
	Provenance provenance       `json:"provenance"`
	EndToEnd   []metric         `json:"end_to_end"`
	PerLayer   []metric         `json:"per_layer"`
	Workloads  []workloadReport `json:"workloads"`
}

// rounds is how many times a run visits every workload in turn: on a
// shared host, conditions drift over tens of seconds, and interleaving
// spreads that drift over all workloads instead of handing it to one.
const rounds = 3

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 15, "seconds each workload measures per pass")
		trace   = fs.String("trace", "both", "0: end-to-end metrics from untraced ops; 1: per-layer metrics from a traced pass; both")
		pct     = fs.Int("scale-pct", 100, "input size as a percentage of the fixed workload sizes")
		out     = fs.String("out", filepath.Join("bench", "out"), "directory for bench.json, traces, profiles and the spill file")
		compare = fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if *pct < 1 || *seconds <= 0 {
		return fmt.Errorf("-scale-pct and -seconds must be positive")
	}
	// More runnable threads than CPUs makes the engine's worker pool
	// time-share, and every wall-clock number with it.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; refusing to measure", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	var chosen []*spec
	for _, sp := range specs() {
		if *name == "all" || *name == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	rep := &report{
		Provenance: provenance{
			Seed: *seed, ScalePct: *pct, Seconds: *seconds, Trace: *trace,
			Commit: commit(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOGC: envOr("GOGC", "100"), CPUModel: cpuModel(),
			Rounds: rounds, SetupReps: setupReps,
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
		EndToEnd: reported,
		PerLayer: perLayer,
	}
	sessions, err := measureAll(chosen, options{seed: *seed, pct: *pct, outDir: *out}, *seconds, *trace)
	for _, s := range sessions {
		rep.Workloads = append(rep.Workloads, s.report(*trace))
	}
	printReport(os.Stdout, rep)
	if werr := writeJSON(filepath.Join(*out, "bench.json"), rep); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if len(sessions) == 1 {
		return driverLine(os.Stdout, sessions[0], *trace)
	}
	for _, s := range sessions {
		if s.failed > 0 {
			return fmt.Errorf("%d of %d ops failed on %s", s.failed, s.attempted, s.sp.name)
		}
	}
	return nil
}

// measureAll sets every workload up, runs the untraced pass in rounds
// that visit every workload in turn, then the traced pass. A traced-only
// run still needs untraced samples as the base of its ratios, and gives
// them three tenths of its time.
func measureAll(chosen []*spec, opt options, seconds float64, trace string) ([]*session, error) {
	budget := time.Duration(seconds * float64(time.Second))
	untraced, traced := budget, budget/2
	switch trace {
	case "0":
		traced = 0
	case "1":
		untraced, traced = budget*3/10, budget*7/10
	}
	sessions := make([]*session, len(chosen))
	recs := make([]*recorder, len(chosen))
	for i, sp := range chosen {
		sessions[i] = newSession(sp, opt)
		if traced > 0 {
			recs[i] = newRecorder()
		}
		sessions[i].setup(recs[i])
	}
	for r := 0; r < rounds; r++ {
		for _, s := range sessions {
			s.measure(untraced / rounds)
		}
	}
	if traced == 0 {
		return sessions, nil
	}
	for i, s := range sessions {
		if err := s.traced(traced, recs[i]); err != nil {
			return sessions, err
		}
	}
	return sessions, nil
}

// report assembles a session's section of the run's report.
func (s *session) report(trace string) workloadReport {
	w := workloadReport{
		Name: s.sp.name, Why: s.sp.why,
		AssuredOps: len(s.assuredWall), PlainOps: s.plainOps,
		Attempted: s.attempted, Failed: s.failed, Failures: s.failures,
		EndToEnd: s.endToEnd().withUnits(reported),
	}
	if s.in != nil {
		w.InputRecords, w.InputBytes = len(s.in.lines), s.in.bytes
	}
	if trace != "0" {
		w.PerLayer = s.layers.withUnits(perLayer)
	}
	return w
}

// driverLine prints the one-object result BENCHMARK.json's driver reads:
// the end-to-end metrics of an untraced run, or the per-layer metrics of
// a traced one.
func driverLine(w io.Writer, s *session, trace string) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, s.endToEnd()
	if trace == "1" {
		defs, vals = perLayer, s.layers
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]mv)}
	for _, d := range defs {
		line.Metrics[d.Name] = mv{vals[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	if s.failed > 0 {
		return fmt.Errorf("%d of %d ops failed: %s", s.failed, s.attempted, strings.Join(s.failures, "; "))
	}
	return nil
}

// printReport prints every metric by name with its unit, sample count,
// quartiles and regression bound.
func printReport(w io.Writer, rep *report) {
	p := rep.Provenance
	fmt.Fprintf(w, "bench: seed %d, scale %d%%, %gs per pass, trace %s, commit %s, %s, GOMAXPROCS %d of %d CPUs (%s)\n",
		p.Seed, p.ScalePct, p.Seconds, p.Trace, p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	for _, wl := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d input records (%.2f MB), %d assured + %d plain timed ops, %d ops attempted, %d failed\n",
			wl.Name, wl.InputRecords, float64(wl.InputBytes)/1e6, wl.AssuredOps, wl.PlainOps, wl.Attempted, wl.Failed)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "   FAILED: %s\n", f)
		}
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tq1\tq3\tbetter\tbound")
		row := func(d metric, vals values, bounded bool) {
			v, ok := vals[d.Name]
			if !ok {
				return
			}
			n, q1, q3, bound := "", "", "", ""
			if v.N > 0 {
				n, q1, q3 = fmt.Sprint(v.N), fmt.Sprintf("%.6g", v.Q1), fmt.Sprintf("%.6g", v.Q3)
			}
			if bounded {
				bound = fmt.Sprintf("%g%%", 100*d.Bound)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\t%s\t%s\n", d.Name, v.Value, d.Unit, n, q1, q3, d.Better, bound)
		}
		for _, d := range rep.EndToEnd {
			row(d, wl.EndToEnd, true)
		}
		for _, d := range rep.PerLayer {
			row(d, wl.PerLayer, false)
		}
		tw.Flush()
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// commit asks git for the checked-out commit; a checkout that is not a
// repository reports "unknown", without letting git search its parents.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
