package experiments

import (
	"fmt"

	"clusterbft/internal/core"
	"clusterbft/internal/workload"
)

// OverheadRow is one configuration of the Fig 9 / Fig 10 latency
// comparisons: the script run once with digests (Single Execution) and
// with 4 replicas plus f+1 digest matching (BFT Execution).
type OverheadRow struct {
	Label    string
	Points   []string // forced point aliases; nil means marker(n)
	N        int      // marker point count when Points is nil
	SingleUs int64
	BFTUs    int64
}

// OverheadResult is a full Fig 9 or Fig 10 dataset.
type OverheadResult struct {
	Name      string
	PurePigUs int64
	Rows      []OverheadRow
}

// Render prints the figure's series: latency and overhead over Pure Pig.
func (r *OverheadResult) Render() string {
	rows := [][]string{{"Pure Pig", seconds(r.PurePigUs), "-", seconds(r.PurePigUs), "-"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			seconds(row.SingleUs), overheadPct(row.SingleUs, r.PurePigUs),
			seconds(row.BFTUs), overheadPct(row.BFTUs, r.PurePigUs),
		})
	}
	return r.Name + "\n" + table(
		[]string{"config", "single(s)", "single-ovh", "bft(s)", "bft-ovh"}, rows)
}

// runOverhead measures one script under pure, single and BFT execution
// for each point configuration.
func runOverhead(sc Scale, name, script, dataPath string, data []string, rows []OverheadRow) (*OverheadResult, error) {
	res := &OverheadResult{Name: name}

	pure := newRig(sc, dataPath, data)
	lat, err := core.RunPlain(pure.Engine, script)
	if err != nil {
		return nil, fmt.Errorf("%s pure: %w", name, err)
	}
	res.PurePigUs = lat

	for _, row := range rows {
		single, err := runOnce(sc, script, dataPath, data, core.Config{
			F: 0, R: 1, ForcePointAliases: row.Points, Points: row.N,
			NumReduces: 2, TimeoutUs: 3_600_000_000, Offline: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s single %s: %w", name, row.Label, err)
		}
		bft, err := runOnce(sc, script, dataPath, data, core.Config{
			F: 1, R: 4, ForcePointAliases: row.Points, Points: row.N,
			NumReduces: 2, TimeoutUs: 3_600_000_000, Offline: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s bft %s: %w", name, row.Label, err)
		}
		row.SingleUs = single.LatencyUs
		row.BFTUs = bft.LatencyUs
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runOnce(sc Scale, script, dataPath string, data []string, cfg core.Config) (*core.Result, error) {
	r := newRig(sc, dataPath, data)
	return r.controller(cfg).Run(script)
}

// Fig9 reproduces "Latency of running Twitter Follower Analysis": Pure
// Pig vs Single vs BFT execution with 1, 2 and 3 verification points
// placed by the marker function. The paper reports ~8% minimal overhead
// and 9/14/19% worst case for 1/2/3 points.
func Fig9(sc Scale) (*OverheadResult, error) {
	data := workload.Twitter(sc.TwitterEdges, sc.TwitterUsers, sc.Seed)
	rows := []OverheadRow{
		{Label: "1 point", N: 1},
		{Label: "2 points", N: 2},
		{Label: "3 points", N: 3},
	}
	return runOverhead(sc, "Fig 9: Twitter Follower Analysis latency",
		workload.FollowerScript, workload.TwitterPath, data, rows)
}

// Fig10 reproduces "Digest computation overhead for Twitter Two Hop
// Analysis": digests at the Join, Project and Filter operators and their
// combinations.
func Fig10(sc Scale) (*OverheadResult, error) {
	// The self-join's output grows with the square of per-user edge
	// counts; a wider user pool keeps the paper-scale join tractable
	// while preserving the skewed shape.
	data := workload.Twitter(sc.TwitterEdges/2, sc.TwitterUsers*5, sc.Seed+1)
	rows := []OverheadRow{
		{Label: "Join", Points: []string{"hops"}},
		{Label: "Project", Points: []string{"pairs"}},
		{Label: "Filter", Points: []string{"proper"}},
		{Label: "J&F", Points: []string{"hops", "proper"}},
		{Label: "J,P&F", Points: []string{"hops", "pairs", "proper"}},
	}
	return runOverhead(sc, "Fig 10: Twitter Two Hop Analysis digest overhead",
		workload.TwoHopScript, workload.TwitterPath, data, rows)
}
