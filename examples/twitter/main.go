// Twitter analysis: the paper's §6.1 verification-overhead study in
// miniature. Runs the follower-count and two-hop scripts as Pure Pig
// (no protection), Single Execution (digests, one replica) and BFT
// Execution (four replicas, f+1 digest matching), sweeping verification
// point placements, and prints the latency overhead of each.
//
//	go run ./examples/twitter
package main

import (
	"fmt"
	"log"

	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/workload"
)

const (
	edges = 60_000
	users = 2_000
	nodes = 32
)

func newSystem() *core.System {
	sys := core.NewSystem(nodes, 3, dfs.Options{}, mapred.DefaultCostModel())
	sys.FS.Append(workload.TwitterPath, workload.Twitter(edges, users, 7)...)
	return sys
}

func assured(script string, cfg core.Config) *core.Result {
	res, err := newSystem().Assure(cfg).Run(script)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	base := core.Config{NumReduces: 2, TimeoutUs: 3_600_000_000, Offline: true, MaxAttempts: 4}

	fmt.Println("== Follower Analysis (Fig 8 i) ==")
	pure, err := core.RunPlain(newSystem().Engine, workload.FollowerScript)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %8.2fs\n", "Pure Pig", float64(pure)/1e6)
	for n := 1; n <= 3; n++ {
		single := base
		single.F, single.R, single.Points = 0, 1, n
		bft := base
		bft.F, bft.R, bft.Points = 1, 4, n
		s := assured(workload.FollowerScript, single)
		b := assured(workload.FollowerScript, bft)
		fmt.Printf("%-22s %8.2fs (+%4.1f%%)   BFT %8.2fs (+%4.1f%%)\n",
			fmt.Sprintf("Single, %d point(s)", n),
			float64(s.LatencyUs)/1e6, pct(s.LatencyUs, pure),
			float64(b.LatencyUs)/1e6, pct(b.LatencyUs, pure))
	}

	fmt.Println("\n== Two Hop Analysis (Fig 8 ii) ==")
	pure2, err := core.RunPlain(newSystem().Engine, workload.TwoHopScript)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %8.2fs\n", "Pure Pig", float64(pure2)/1e6)
	for _, cfg := range []struct {
		label  string
		points []string
	}{
		{"Join", []string{"hops"}},
		{"Filter", []string{"proper"}},
		{"J,P&F", []string{"hops", "pairs", "proper"}},
	} {
		bft := base
		bft.F, bft.R = 1, 4
		bft.ForcePointAliases = cfg.points
		b := assured(workload.TwoHopScript, bft)
		fmt.Printf("%-22s BFT %8.2fs (+%4.1f%%), %d digest reports\n",
			cfg.label, float64(b.LatencyUs)/1e6, pct(b.LatencyUs, pure2), b.DigestReports)
	}
}

func pct(v, base int64) float64 { return 100 * (float64(v)/float64(base) - 1) }
