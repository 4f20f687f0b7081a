package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per (end-to-end metric, workload) row.
const (
	unchanged  = "unchanged"
	regressed  = "regressed"
	improved   = "improved"
	unresolved = "unresolved"
)

// spreadOf estimates how far a reported median may sit from the true one,
// as a share of it: the quartile distance of its samples shrunk by the
// square root of their number. On the reference host that matches the
// spread ten runs of one commit show (README.md, "Baseline").
func spreadOf(v value) float64 {
	if v.N < 2 || v.Value == 0 {
		return 0
	}
	return math.Abs(v.Q3-v.Q1) / math.Abs(v.Value) / math.Sqrt(float64(v.N))
}

// judge applies a metric's bound to a base and a new measurement.
func judge(d metric, base, next value, spread float64) string {
	if base.Value == 0 {
		if next.Value == 0 {
			return unchanged
		}
		return regressed
	}
	// How much worse the new one is, as a share of the base.
	change := (next.Value - base.Value) / math.Abs(base.Value)
	if d.Better == higher {
		change = -change
	}
	switch {
	case change > d.Bound:
		return regressed
	case change < -d.Bound:
		return improved
	case spread > d.Bound:
		return unresolved
	}
	return unchanged
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) present
// in both reports, every ratio with its base, and fails if any regressed.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	next, err := readReport(nextPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base: %s (commit %s, seed %d)\nnew:  %s (commit %s, seed %d)\n",
		basePath, base.Provenance.Commit, base.Provenance.Seed, nextPath, next.Provenance.Commit, next.Provenance.Seed)
	byName := make(map[string]workloadReport)
	for _, wl := range next.Workloads {
		byName[wl.Name] = wl
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tunit\tnew/base\tbound\tspread\tverdict")
	tally := make(map[string]int)
	for _, bw := range base.Workloads {
		nw, ok := byName[bw.Name]
		if !ok {
			continue
		}
		for _, d := range base.EndToEnd {
			bv, ok1 := bw.EndToEnd[d.Name]
			nv, ok2 := nw.EndToEnd[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			spread := math.Max(spreadOf(bv), spreadOf(nv))
			verdict := judge(d, bv, nv, spread)
			tally[verdict]++
			ratio := "-"
			if bv.Value != 0 {
				ratio = fmt.Sprintf("%.4fx", nv.Value/bv.Value)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%g%%\t%.2f%%\t%s\n",
				bw.Name, d.Name, bv.Value, nv.Value, d.Unit, ratio, 100*d.Bound, 100*spread, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d unchanged, %d improved, %d regressed, %d unresolved\n",
		tally[unchanged], tally[improved], tally[regressed], tally[unresolved])
	if tally[regressed] > 0 {
		return fmt.Errorf("%d rows regressed beyond their bound", tally[regressed])
	}
	return nil
}
