package main

import (
	"fmt"
	"math/rand"
	"slices"

	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/workload"
)

// etlScript is the map-only job of etl_spill: with no shuffle and no
// aggregate, block encode, spill and inflate are all the work there is.
const etlScript = `
fl = LOAD 'data/airline/flights' AS (year:int, month:int, origin, dest, delay:int);
late = FILTER fl BY delay > 0;
STORE late INTO 'out/airline/late';
`

// byzantineNode always corrupts its task outputs; slowNode stretches its
// task durations fourfold. Both are fixed so every seed exercises the
// same recovery path.
const (
	byzantineNode = cluster.NodeID("node-003")
	slowNode      = cluster.NodeID("node-009")
)

// verdictBatch is how many digest verdicts the replicated request
// handler orders per consensus instance (Fig 14's control tier).
const verdictBatch = 20

// spec describes one benchmark workload: the input it generates, the
// system it builds for every op, and the checks its results must pass.
type spec struct {
	name string
	why  string

	path   string // DFS path the script LOADs
	script string
	// draw makes the workload's one fixed draw of its dataset at pct
	// percent of the fixed size; reseed derives each seed's input from it.
	draw func(pct int) []string
	// reference computes the expected lines of every STORE independently
	// of the engine.
	reference func(lines []string) map[string][]string
	// countOnly compares outputs on their last column, the count: the
	// script's ORDER ... LIMIT breaks ties between equal counts
	// arbitrarily, so the airports may differ while the counts may not.
	countOnly bool

	nodes     int
	plainReps int // plain ops run before each assured op
	cfg       core.Config
	// ordered sends every verdictBatch digest verdicts through a PBFT
	// group inside the timed assured op.
	ordered bool
	// storage derives the DFS options from the input size; nil keeps
	// every block resident and uncompressed.
	storage func(inputBytes int64, spillDir string) dfs.Options
	// faults attaches adversaries and recovery settings to a fresh system.
	faults func(cl *cluster.Cluster, eng *mapred.Engine) error
	// assure checks that the run verified what the workload exists to
	// verify, so a change cannot win by verifying less.
	assure func(res *core.Result, sys *system) error
}

// drawSeed seeds every workload's fixed draw.
const drawSeed = 1

// reseed derives one seed's input from a workload's fixed draw by
// reordering its rows. Every seed therefore puts different records into
// every split, partition and block, which a correct engine must not care
// about, and has the same group sizes, join fan-out and filter
// selectivity, which decide how much work the script is. Seeding the draw
// itself moves the two-hop join's output, and with it every count the
// benchmark bounds, by more than ten percent from seed to seed; one bound
// per metric has to hold on every workload.
func reseed(draw []string, seed int64) []string {
	out := slices.Clone(draw)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func scaled(n, pct int) int {
	n = n * pct / 100
	if n < 1 {
		n = 1
	}
	return n
}

// specs lists the five workloads in the order a full run visits them.
// Sizes are fixed at -scale-pct 100; see README.md for why each was
// chosen and which layer it loads.
func specs() []*spec {
	def := core.DefaultConfig()

	fine := core.DefaultConfig()
	fine.Points = -1
	fine.DigestChunk = 100

	byz := core.DefaultConfig()
	byz.R = 2
	byz.Checkpoint = true
	byz.SuspicionThreshold = 0.5
	byz.MaxAttempts = 8

	return []*spec{
		{
			name:   "follower_clean",
			why:    "fault-free follower count at r=4: the combiner collapses the shuffle, so map-side decode, eval, digest and DFS block reads are the work",
			path:   workload.TwitterPath,
			script: workload.FollowerScript,
			draw: func(pct int) []string {
				return workload.Twitter(scaled(200_000, pct), scaled(8_000, pct), drawSeed)
			},
			reference: refFollower,
			nodes:     16,
			plainReps: 2,
			cfg:       def,
		},
		{
			name:   "twohop_join",
			why:    "self-join with no combiner and an output far larger than its input: sort-merge shuffle, reduce-side join and replica output writes dominate",
			path:   workload.TwitterPath,
			script: workload.TwoHopScript,
			draw: func(pct int) []string {
				return workload.Twitter(scaled(25_000, pct), scaled(6_250, pct), drawSeed)
			},
			reference: refTwoHop,
			nodes:     16,
			plainReps: 3,
			cfg:       def,
		},
		{
			name:   "weather_finegrain",
			why:    "every vertex digested at d=100 and every 20 verdicts PBFT-ordered: the verdict plane (matcher, digest flush, bft) is the work, the data plane is not",
			path:   workload.WeatherPath,
			script: workload.WeatherScript,
			draw: func(pct int) []string {
				return workload.Weather(scaled(15_000, pct), scaled(400, pct), drawSeed)
			},
			reference: refWeather,
			nodes:     16,
			plainReps: 10,
			cfg:       fine,
			ordered:   true,
		},
		{
			name:      "airline_byzantine",
			why:       "optimistic r=2 with one always-commission node and one slow node: detection, retry at r+1, suspicion, checkpoint saves; outputs must still equal the reference",
			path:      workload.AirlinePath,
			script:    workload.AirlineScript,
			draw:      func(pct int) []string { return workload.Airline(scaled(150_000, pct), 40, drawSeed) },
			reference: refAirline,
			countOnly: true,
			nodes:     32,
			plainReps: 2,
			cfg:       byz,
			faults: func(cl *cluster.Cluster, eng *mapred.Engine) error {
				eng.Speculation = true
				eng.SpecQuantile = 0.95
				if err := cl.SetAdversary(byzantineNode, cluster.FaultCommission, 1.0, 1); err != nil {
					return err
				}
				if err := cl.SetAdversary(slowNode, cluster.FaultSlow, 1.0, 2); err != nil {
					return err
				}
				cl.Node(slowNode).Adversary.SlowFactor = 4
				return nil
			},
			assure: func(res *core.Result, _ *system) error {
				if res.FaultyReplicas < 1 {
					return fmt.Errorf("no faulty replica detected")
				}
				for _, n := range res.Suspects {
					if n == byzantineNode {
						return nil
					}
				}
				return fmt.Errorf("%s not among suspects %v", byzantineNode, res.Suspects)
			},
		},
		{
			name:      "etl_spill",
			why:       "map-only filter over a compressed store with a quarter of the input resident: block encode, deflate, spill and reload are the work",
			path:      workload.AirlinePath,
			script:    etlScript,
			draw:      func(pct int) []string { return workload.Airline(scaled(75_000, pct), 40, drawSeed) },
			reference: refLate,
			nodes:     16,
			plainReps: 2,
			cfg:       def,
			storage: func(inputBytes int64, spillDir string) dfs.Options {
				return dfs.Options{
					BlockSize: int(inputBytes / 64),
					MemBudget: inputBytes / 4,
					SpillDir:  spillDir,
					Compress:  true,
				}
			},
			assure: func(_ *core.Result, sys *system) error {
				if sys.fs.SpilledBlocks() == 0 {
					return fmt.Errorf("no block spilled")
				}
				if max := sys.fs.MaxResidentBytes(); max > sys.opts.MemBudget {
					return fmt.Errorf("resident high-water %d exceeds budget %d", max, sys.opts.MemBudget)
				}
				return sys.fs.SpillErr()
			},
		},
	}
}
