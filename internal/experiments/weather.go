package experiments

import (
	"fmt"

	"clusterbft/internal/core"
	"clusterbft/internal/workload"
)

// Fig14Cell is one (f, d, system) latency.
type Fig14Cell struct {
	EngineUs  int64 // data-plane latency (replicated job execution)
	ControlUs int64 // control-tier latency: BFT-ordered digest verdicts
	Reports   int64 // digests processed
}

// TotalUs is the end-to-end latency: the data plane plus the replicated
// request handler's ordering work for every digest verdict.
func (c Fig14Cell) TotalUs() int64 { return c.EngineUs + c.ControlUs }

// Fig14Row is one (f, d) configuration across the three systems.
type Fig14Row struct {
	F       int
	D       int       // digest granularity: records per digest
	Full    Fig14Cell // digest at final output only, 3f+1 replicas
	Cluster Fig14Cell // ClusterBFT with 2 verification points
	Indiv   Fig14Cell // digest at every data-flow vertex
}

// Fig14Result reproduces "Computing average weather temperatures":
// latency for f ∈ {1,2,3} × d ∈ {10k, 1k, 100}, with the request handler
// itself replicated over 3f+1 PBFT replicas (§6.4). The paper reports
// ClusterBFT within 10–18% of Full even at high approximation accuracy,
// with Individual growing much faster.
type Fig14Result struct {
	Rows []Fig14Row
}

// Render prints one row per (f, d).
func (r *Fig14Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d,%s", row.F, dLabel(row.D)),
			seconds(row.Full.TotalUs()),
			seconds(row.Cluster.TotalUs()),
			overheadPct(row.Cluster.TotalUs(), row.Full.TotalUs()),
			seconds(row.Indiv.TotalUs()),
			overheadPct(row.Indiv.TotalUs(), row.Full.TotalUs()),
		})
	}
	return "Fig 14: weather average temperatures (BFT-replicated control tier)\n" +
		table([]string{"f,d", "full(s)", "clusterbft(s)", "vs full", "individual(s)", "vs full"}, rows)
}

func dLabel(d int) string {
	if d >= 1000 {
		return fmt.Sprintf("%dk", d/1000)
	}
	return fmt.Sprintf("%d", d)
}

// Fig14 runs the sweep.
func Fig14(sc Scale) (*Fig14Result, error) {
	data := workload.Weather(sc.WeatherRows, sc.WeatherStations, sc.Seed+7)
	res := &Fig14Result{}
	for _, f := range []int{1, 2, 3} {
		for _, d := range []int{10_000, 1_000, 100} {
			row := Fig14Row{F: f, D: d}
			var err error
			if row.Full, err = fig14Run(sc, data, f, d, core.Config{VerifyFinalOnly: true}); err != nil {
				return nil, fmt.Errorf("fig14 full f=%d d=%d: %w", f, d, err)
			}
			// ClusterBFT's two §6.4 verification points: the first
			// grouping operator (digesting the full pre-shuffle stream)
			// and the per-station averages.
			if row.Cluster, err = fig14Run(sc, data, f, d, core.Config{ForcePointAliases: []string{"bystation", "avgs"}}); err != nil {
				return nil, fmt.Errorf("fig14 clusterbft f=%d d=%d: %w", f, d, err)
			}
			if row.Indiv, err = fig14Run(sc, data, f, d, core.Config{Points: -1}); err != nil {
				return nil, fmt.Errorf("fig14 individual f=%d d=%d: %w", f, d, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func fig14Run(sc Scale, data []string, f, d int, variant core.Config) (Fig14Cell, error) {
	cfg := core.Config{
		F:                 f,
		R:                 3*f + 1,
		Points:            variant.Points,
		ForcePointAliases: variant.ForcePointAliases,
		VerifyFinalOnly:   variant.VerifyFinalOnly,
		DigestChunk:       d,
		NumReduces:        2,
		TimeoutUs:         3_600_000_000,
		Offline:           true,
	}
	r := newRig(sc, workload.WeatherPath, data)
	result, err := r.controller(cfg).Run(workload.WeatherScript)
	if err != nil {
		return Fig14Cell{}, err
	}
	cell := Fig14Cell{EngineUs: result.LatencyUs, Reports: result.DigestReports}
	// Workers stream digests to every handler replica (the paper's
	// multi-coordinator Penny, §5.2); the handlers order the verdicts.
	cell.ControlUs, _, err = core.ControlTierTime(f, result.DigestReports)
	return cell, err
}
