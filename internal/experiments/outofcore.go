package experiments

import (
	"fmt"
	"sort"

	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/obs"
	"clusterbft/internal/workload"
)

// OutOfCore demonstrates the block data plane's out-of-core operation:
// the follower workload runs under full BFT verification twice, once
// with the whole dataset resident (the historical behaviour) and once
// under a resident-memory budget of at most a quarter of the dataset
// with per-block compression on, forcing sealed blocks to spill to
// disk. The two runs must be observationally identical — same verified
// STORE records, same digest-report count, same engine metrics — since
// digests are taken over canonical record bytes, never block bytes.
// The spill run's resident high-water mark is asserted against the
// budget via the dfs obs gauges.

// OutOfCoreRow is one storage mode's measurements.
type OutOfCoreRow struct {
	Mode        string
	LatencyUs   int64
	MaxResident int64 // dfs.max_resident_bytes gauge after the run
	BlocksSpill int64 // dfs.blocks_spilled
	SpillBytes  int64 // dfs.spill_bytes
	CompressPct int64 // dfs.compressed_ratio (stored/raw, percent)
	DigestCount int64
}

// OutOfCoreResult is the out-of-core equivalence experiment's output.
type OutOfCoreResult struct {
	Name         string
	DatasetBytes int64
	BudgetBytes  int64
	BlockSize    int
	Identical    bool // outputs + digest counts + metrics matched
	Rows         []OutOfCoreRow
}

// Render prints the comparison shaped like the paper's tables.
func (r *OutOfCoreResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode,
			seconds(row.LatencyUs),
			fmt.Sprintf("%d", row.MaxResident),
			fmt.Sprintf("%d", row.BlocksSpill),
			fmt.Sprintf("%d", row.SpillBytes),
			fmt.Sprintf("%d%%", row.CompressPct),
			fmt.Sprintf("%d", row.DigestCount),
		})
	}
	return fmt.Sprintf("%s\ndataset: %d B   budget: %d B (%.1fx dataset/budget)   block: %d B   outputs+digests identical: %v\n%s",
		r.Name, r.DatasetBytes, r.BudgetBytes,
		float64(r.DatasetBytes)/float64(r.BudgetBytes), r.BlockSize, r.Identical,
		table(
			[]string{"storage", "latency", "max resident B", "blocks spilled", "spill B", "stored/raw", "digests"},
			rows))
}

// outOfCoreOutcome captures everything one mode's run produced that the
// equivalence check compares.
type outOfCoreOutcome struct {
	row     OutOfCoreRow
	outputs map[string][]string
	metrics string
}

// OutOfCore runs the experiment; see the package comment above.
func OutOfCore(sc Scale) (*OutOfCoreResult, error) {
	data := workload.Twitter(sc.TwitterEdges, sc.TwitterUsers, sc.Seed)
	var datasetBytes int64
	for _, l := range data {
		datasetBytes += int64(len(l)) + 1
	}
	// Budget at most a quarter of the dataset (the acceptance regime:
	// dataset >= 4x budget), block size an eighth of the budget so the
	// budget is always enforceable at block granularity.
	budget := datasetBytes / 4
	if budget < 4<<10 {
		budget = 4 << 10
	}
	blockSize := int(budget / 8)
	if blockSize < 1<<10 {
		blockSize = 1 << 10
	}

	res := &OutOfCoreResult{
		Name:         "Out-of-core block data plane: spill+compression vs all-resident",
		DatasetBytes: datasetBytes,
		BudgetBytes:  budget,
		BlockSize:    blockSize,
	}

	cfg := core.DefaultConfig()
	cfg.NumReduces = 2

	runMode := func(mode string, storage dfs.Options) (*outOfCoreOutcome, error) {
		msc := sc
		msc.Core.Storage = storage
		r := newRig(msc, workload.TwitterPath, data)
		defer r.FS.Close()
		reg := obs.NewRegistry()
		r.FS.Instrument(reg)
		cr, err := r.controller(cfg).Run(workload.FollowerScript)
		if err != nil {
			return nil, fmt.Errorf("outofcore %s: %w", mode, err)
		}
		if !cr.Verified {
			return nil, fmt.Errorf("outofcore %s: run not verified", mode)
		}
		out := make(map[string][]string, len(cr.Outputs))
		for store, path := range cr.Outputs {
			lines, err := r.FS.ReadTree(path)
			if err != nil {
				return nil, fmt.Errorf("outofcore %s: read %s: %w", mode, path, err)
			}
			out[store] = lines
		}
		gauges := map[string]int64{}
		for _, s := range reg.Snapshot() {
			gauges[s.Name] = s.Value
		}
		return &outOfCoreOutcome{
			row: OutOfCoreRow{
				Mode:        mode,
				LatencyUs:   cr.LatencyUs,
				MaxResident: gauges["dfs.max_resident_bytes"],
				BlocksSpill: gauges["dfs.blocks_spilled"],
				SpillBytes:  gauges["dfs.spill_bytes"],
				CompressPct: gauges["dfs.compressed_ratio"],
				DigestCount: cr.DigestReports,
			},
			outputs: out,
			metrics: fmt.Sprintf("%+v", r.Engine.Metrics),
		}, nil
	}

	base, err := runMode("resident", dfs.Options{})
	if err != nil {
		return nil, err
	}
	spill, err := runMode("spill+flate", dfs.Options{
		BlockSize: blockSize,
		MemBudget: budget,
		SpillDir:  sc.Core.Storage.SpillDir,
		Compress:  true,
	})
	if err != nil {
		return nil, err
	}
	res.Rows = []OutOfCoreRow{base.row, spill.row}

	if spill.row.BlocksSpill == 0 {
		return nil, fmt.Errorf("outofcore: nothing spilled under a %d-byte budget over a %d-byte dataset", budget, datasetBytes)
	}
	if spill.row.MaxResident > budget {
		return nil, fmt.Errorf("outofcore: resident high-water mark %d B exceeds the %d B budget", spill.row.MaxResident, budget)
	}

	res.Identical = base.row.DigestCount == spill.row.DigestCount &&
		base.metrics == spill.metrics &&
		equalOutputs(base.outputs, spill.outputs)
	if !res.Identical {
		return nil, fmt.Errorf("outofcore: observables diverged between resident and spill runs")
	}
	return res, nil
}

// equalOutputs compares two store->records maps byte for byte.
func equalOutputs(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		la, lb := a[k], b[k]
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i] != lb[i] {
				return false
			}
		}
	}
	return true
}
