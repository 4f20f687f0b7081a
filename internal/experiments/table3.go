package experiments

import (
	"fmt"

	"clusterbft/internal/analyze"
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/mapred"
	"clusterbft/internal/workload"
)

// Table3Cell holds one (configuration, system) measurement of the §6.2
// airline study as multipliers over a single standard Pig run.
type Table3Cell struct {
	LatencyUs int64
	Metrics   mapred.Metrics
	Attempts  int
	Verified  bool
}

// Table3Row pairs ClusterBFT (C) with the verify-final-output-only
// baseline (P) for one replication configuration.
type Table3Row struct {
	Label string
	C, P  Table3Cell
}

// Table3Result reproduces "ClusterBFT in the presence of Byzantine
// failures".
type Table3Result struct {
	Baseline Table3Cell // single pure-Pig run (divisor for multipliers)
	Rows     []Table3Row
}

// Render prints the paper's five measures as C/P multiplier pairs.
func (r *Table3Result) Render() string {
	header := []string{"measure"}
	for _, row := range r.Rows {
		header = append(header, row.Label+" C", row.Label+" P")
	}
	measure := func(name string, get func(Table3Cell) int64) []string {
		base := get(r.Baseline)
		cells := []string{name}
		for _, row := range r.Rows {
			cells = append(cells, ratio(get(row.C), base), ratio(get(row.P), base))
		}
		return cells
	}
	rows := [][]string{
		measure("Latency", func(c Table3Cell) int64 { return c.LatencyUs }),
		measure("CPU time", func(c Table3Cell) int64 { return c.Metrics.CPUTimeUs }),
		measure("File read", func(c Table3Cell) int64 { return c.Metrics.LocalBytesRead }),
		measure("File write", func(c Table3Cell) int64 { return c.Metrics.LocalBytesWritten }),
		measure("HDFS write", func(c Table3Cell) int64 { return c.Metrics.HDFSBytesWritten }),
	}
	return "Table 3: ClusterBFT under Byzantine failures (multipliers over one standard Pig run)\n" +
		table(header, rows)
}

// table3Config is one column pair of Table 3.
type table3Config struct {
	label    string
	r        int
	omission bool // case 2: a correct replica misses the verifier timeout
}

// Table3 reproduces §6.2: the airline multi-store query with f=1, two
// verification points (C) against final-output-only verification (P),
// under r ∈ {2, 3, 4}, with one node always producing commission faults.
// "r=3 case2" additionally makes a correct replica unresponsive so the
// verifier times out and re-initiates with a larger timeout.
func Table3(sc Scale) (*Table3Result, error) {
	data := workload.Airline(sc.AirlineRows, 0, sc.Seed+2)
	res := &Table3Result{}

	base := newRig(sc, workload.AirlinePath, data)
	lat, err := core.RunPlain(base.Engine, workload.AirlineScript)
	if err != nil {
		return nil, fmt.Errorf("table3 baseline: %w", err)
	}
	res.Baseline = Table3Cell{LatencyUs: lat, Metrics: base.Engine.Metrics, Verified: true, Attempts: 1}

	configs := []table3Config{
		{label: "r=2", r: 2},
		{label: "r=3c1", r: 3},
		{label: "r=3c2", r: 3, omission: true},
		{label: "r=4", r: 4},
	}
	for _, tc := range configs {
		row := Table3Row{Label: tc.label}
		for _, finalOnly := range []bool{false, true} {
			cell, err := table3Run(sc, data, tc, finalOnly, res.Baseline.LatencyUs)
			if err != nil {
				return nil, fmt.Errorf("table3 %s finalOnly=%v: %w", tc.label, finalOnly, err)
			}
			if finalOnly {
				row.P = cell
			} else {
				row.C = cell
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func table3Run(sc Scale, data []string, tc table3Config, finalOnly bool, baselineUs int64) (Table3Cell, error) {
	r := newRig(sc, workload.AirlinePath, data)
	// One node always produces commission failures (§6.2).
	if err := r.Cluster.SetAdversary("node-001", cluster.FaultCommission, 1.0, sc.Seed+5); err != nil {
		return Table3Cell{}, err
	}
	if tc.omission {
		// "Correct" (non-lying) replicas that never respond: omission
		// nodes stall whichever replica touches them, so the verifier
		// times out waiting for f+1 matching digests and re-initiates
		// with a larger timeout (Table 3's case 2).
		for i, n := range []cluster.NodeID{"node-002", "node-003", "node-004"} {
			if err := r.Cluster.SetAdversary(n, cluster.FaultOmission, 0.7, sc.Seed+6+int64(i)); err != nil {
				return Table3Cell{}, err
			}
		}
	}
	cfg := core.Config{
		F: 1,
		R: tc.r,
		// Strong adversary model: verification points sit at data flow
		// between jobs (§4.1), which is also what makes ClusterBFT's
		// sub-graph granularity differ from P's whole-script granularity.
		Points:          2,
		Model:           analyze.Strong,
		VerifyFinalOnly: finalOnly,
		NumReduces:      2,
		// The verifier timeout sits modestly above an honest run's
		// duration — an operational choice; the paper's case-2 numbers
		// (~2.1x, not ~10x) imply a timeout of about one extra run. It
		// scales with the measured baseline so the same multiple holds
		// at every workload scale.
		TimeoutUs:   3 * baselineUs,
		MaxAttempts: 8,
		Offline:     true,
	}
	ctrl := r.controller(cfg)
	result, err := ctrl.Run(workload.AirlineScript)
	if err != nil {
		return Table3Cell{}, err
	}
	return Table3Cell{
		LatencyUs: result.LatencyUs,
		Metrics:   result.Metrics,
		Attempts:  result.Attempts,
		Verified:  result.Verified,
	}, nil
}
