// Package cli is what the three commands (clusterbft, experiments,
// faultsim) share: the nine flags every one of them takes, declared
// once, their resolution onto a core.Config, and the observability
// plane they switch on, wired to however many engines a command builds.
package cli

import (
	"flag"
	"fmt"
	"io"
	"sync/atomic"

	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/obs"
	"clusterbft/internal/obs/introspect"
)

// Flags holds the parsed values of the shared flags.
type Flags struct {
	// VerifyPolicy is -verify-policy as typed. Apply parses it;
	// cmd/clusterbft looks at it first for its own "none".
	VerifyPolicy string
	Checkpoint   bool
	Trace        string
	Metrics      bool
	HTTP         string

	blockSize int
	memBudget string
	spillDir  string
	compress  bool
}

// Bind declares the shared flags on fs — typically flag.CommandLine —
// and returns where their values land once fs has been parsed.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.VerifyPolicy, "verify-policy", "full", "verification policy: full, quiz, deferred or auto")
	fs.BoolVar(&f.Checkpoint, "checkpoint", false, "persist verified interior outputs as checkpoints so retries re-execute only the DAG suffix, and arm straggler re-launch")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON timeline here (a .jsonl twin is written next to it)")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the metrics registry after the run")
	fs.StringVar(&f.HTTP, "http", "", "serve live introspection (/metrics, /healthz, /jobs, /trace, pprof) on this address, e.g. :8080")
	fs.IntVar(&f.blockSize, "block-size", dfs.DefaultBlockSize, "target encoded size of one sealed DFS block, in bytes")
	fs.StringVar(&f.memBudget, "mem-budget", "0", "resident block memory budget with optional k/m/g suffix; 0 keeps every block in memory")
	fs.StringVar(&f.spillDir, "spill-dir", "", "directory for the block spill file (default: system temp dir)")
	fs.BoolVar(&f.compress, "compress", false, "flate-compress sealed DFS blocks")
	return f
}

// Storage resolves the four block data-plane flags.
func (f *Flags) Storage() (dfs.Options, error) {
	budget, err := dfs.ParseBytes(f.memBudget)
	return dfs.Options{BlockSize: f.blockSize, MemBudget: budget, SpillDir: f.spillDir, Compress: f.compress}, err
}

// Apply resolves -verify-policy, -checkpoint and the storage flags onto
// cfg and validates the result, so a command sets its own fields (-f,
// -r, ...) first and calls Apply last.
func (f *Flags) Apply(cfg *core.Config) error {
	var err error
	if cfg.VerifyPolicy, err = core.ParsePolicy(f.VerifyPolicy); err != nil {
		return err
	}
	if cfg.Storage, err = f.Storage(); err != nil {
		return err
	}
	cfg.Checkpoint = f.Checkpoint
	return cfg.Validate()
}

// Plane is what the shared flags do to a run's engines: a registry when
// -metrics or -http is set, a tracer for -trace or -http, and a jobs
// board and the HTTP server for -http. With none of them set it is inert
// and every method is a no-op.
type Plane struct {
	flags  *Flags
	reg    *obs.Registry
	tracer *obs.Tracer
	board  *obs.JobsBoard
	srv    *introspect.Server
	// cur is the engine attached last: the cost buckets under /jobs are
	// the currently-running engine's ledger.
	cur atomic.Pointer[mapred.Engine]
}

// Start builds the plane and, with -http, starts serving and announces
// the address on out. Close it when the command is done.
func (f *Flags) Start(out io.Writer) (*Plane, error) {
	p := &Plane{flags: f}
	if f.Metrics || f.HTTP != "" {
		p.reg = obs.NewRegistry()
	}
	if f.Trace != "" || f.HTTP != "" {
		p.tracer = obs.NewTracer(0)
		if f.Trace != "" {
			p.tracer.EnableWallClock(obs.WallUnixMicros)
		}
	}
	if f.HTTP == "" {
		return p, nil
	}
	p.board = obs.NewJobsBoard()
	srv, err := introspect.Start(f.HTTP, introspect.Options{
		Registry: p.reg,
		Tracer:   p.tracer,
		Board:    p.board,
		Cost: func() any {
			if e := p.cur.Load(); e != nil {
				return e.Ledger.Buckets()
			}
			return nil
		},
		SIDCost: func(sid string) (any, bool) {
			if e := p.cur.Load(); e != nil {
				return e.Ledger.SIDBuckets(sid)
			}
			return nil, false
		},
	})
	if err != nil {
		return nil, err
	}
	p.srv = srv
	fmt.Fprintf(out, "introspection: %s\n", srv.URL())
	return p, nil
}

// Attach wires one engine into the plane before it runs. A command with
// one engine calls it directly; one that builds many passes it as
// experiments.Scale.Observe / chaos.CampaignConfig.Observe, and the
// registry, trace ring and board accumulate across them.
func (p *Plane) Attach(e *mapred.Engine) {
	e.InstrumentMetrics(p.reg)
	e.Trace = p.tracer
	e.Board = p.board
	p.cur.Store(e)
}

// Report writes the -trace file and prints the -trace / -metrics
// epilogue on out.
func (p *Plane) Report(out io.Writer) error {
	if path := p.flags.Trace; path != "" {
		twin, err := obs.WriteTraceFiles(p.tracer, path)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %s (chrome://tracing, Perfetto)  jsonl: %s  spans: %d  dropped: %d\n",
			path, twin, p.tracer.Len(), p.tracer.Dropped())
	}
	if p.flags.Metrics {
		fmt.Fprintf(out, "\nmetrics:\n%s", p.reg.RenderText())
	}
	return nil
}

// Close stops the HTTP server, if one was started.
func (p *Plane) Close() {
	if p.srv != nil {
		p.srv.Close()
	}
}
