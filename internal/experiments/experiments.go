// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the Twitter digest-overhead measurements (Figs 9 and
// 10), the airline Byzantine-failure study (Table 3), the fault-isolation
// simulation (Figs 11–13) and the weather approximation-accuracy sweep
// with a BFT-replicated control tier (Fig 14). Each function returns a
// structured result plus a Render method printing rows shaped like the
// paper's.
package experiments

import (
	"fmt"
	"strings"

	"clusterbft/internal/core"
	"clusterbft/internal/mapred"
)

// Scale sets workload sizes so the same experiments run quickly in tests
// and at full size in benches.
type Scale struct {
	TwitterEdges    int
	TwitterUsers    int
	AirlineRows     int
	WeatherRows     int
	WeatherStations int
	Nodes           int // untrusted tier size; paper: 32
	Slots           int
	Trials          int // fault-isolation trials per configuration
	SimTime         int // fault-isolation simulated ticks
	Seed            int64
	// Core is what the shared flags resolved; cmd/experiments has
	// cli.Apply fill it in place. Storage shapes every rig's DFS block
	// data plane (observables are identical at any setting); a non-zero
	// VerifyPolicy applies to every controller that does not pin one
	// itself; Checkpoint applies to every controller (the recovery
	// experiment reports both paths regardless). Figures pin the rest.
	Core core.Config
	// Observe, when non-nil, is applied to every engine a rig constructs
	// (cmd/experiments attaches its shared tracer and registry; the
	// registry's register-or-get semantics make the sequential rigs
	// accumulate into the same counters).
	Observe func(*mapred.Engine)
}

// Small returns a scale suitable for unit tests (sub-second runs).
func Small() Scale {
	return Scale{
		TwitterEdges:    20_000,
		TwitterUsers:    800,
		AirlineRows:     12_000,
		WeatherRows:     20_000,
		WeatherStations: 100,
		Nodes:           16,
		Slots:           3,
		Trials:          3,
		SimTime:         150,
		Seed:            1,
	}
}

// Paper approximates the paper's setup: 32 untrusted nodes, hundreds of
// thousands of records, more trials.
func Paper() Scale {
	return Scale{
		TwitterEdges:    300_000,
		TwitterUsers:    10_000,
		AirlineRows:     200_000,
		WeatherRows:     150_000,
		WeatherStations: 400,
		Nodes:           32,
		Slots:           3,
		Trials:          8,
		SimTime:         400,
		Seed:            1,
	}
}

// rig is one disposable measurement setup: a fresh system over a seeded
// dataset, plus the scale it was built at.
type rig struct {
	*core.System
	sc Scale
}

func newRig(sc Scale, path string, lines []string) *rig {
	sys := core.NewSystem(sc.Nodes, sc.Slots, sc.Core.Storage, expCostModel())
	sys.FS.Append(path, lines...)
	if sc.Observe != nil {
		sc.Observe(sys.Engine)
	}
	return &rig{System: sys, sc: sc}
}

// expCostModel puts the experiments in the paper's operating regime:
// jobs long enough that per-record processing dominates task startup
// (the paper's runs take minutes on GB inputs, so Hadoop's startup cost
// is amortized away). Digesting costs 20% of map-side record handling,
// which reproduces the single-digit-percent overheads of §6.1 for one
// full-stream verification point.
func expCostModel() mapred.CostModel {
	return mapred.CostModel{
		TaskStartupUs:   400_000,
		MapRecordUs:     20,
		ReduceRecordUs:  30,
		ShuffleRecordUs: 4,
		CombineRecordUs: 2,
		DigestRecordUs:  4,
		HeartbeatUs:     100_000,
		SplitRecords:    10_000,
	}
}

// controller puts the control tier over the rig, with the scale's policy
// and checkpoint settings overlaid on the figure's own cfg.
func (r *rig) controller(cfg core.Config) *core.Controller {
	cfg.Checkpoint = cfg.Checkpoint || r.sc.Core.Checkpoint
	if cfg.VerifyPolicy == 0 {
		cfg.VerifyPolicy = r.sc.Core.VerifyPolicy
	}
	return r.Assure(cfg)
}

// seconds renders virtual microseconds as seconds with two decimals.
func seconds(us int64) string { return fmt.Sprintf("%7.2f", float64(us)/1e6) }

// ratio renders a multiplier like the paper's "1.6x".
func ratio(v, base int64) string {
	if base == 0 {
		return "   -"
	}
	return fmt.Sprintf("%.2fx", float64(v)/float64(base))
}

// overheadPct renders percentage overhead over a baseline.
func overheadPct(v, base int64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(v)/float64(base)-1))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width[i]))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
