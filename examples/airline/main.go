// Airline analysis under attack: the paper's §6.2 scenario. Runs the
// multi-store top-20-airports query while one worker node always corrupts
// its task output (a commission fault), and shows ClusterBFT verifying
// the result anyway, identifying the deviant replicas, and driving the
// faulty node's suspicion level up until it falls off the inclusion list.
//
//	go run ./examples/airline
package main

import (
	"fmt"
	"log"

	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/workload"
)

func main() {
	sys := core.NewSystem(24, 3, dfs.Options{}, mapred.DefaultCostModel())
	sys.FS.Append(workload.AirlinePath, workload.Airline(50_000, 0, 3)...)

	// node-005 lies on every task it runs.
	const evil = cluster.NodeID("node-005")
	if err := sys.Cluster.SetAdversary(evil, cluster.FaultCommission, 1.0, 99); err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.SuspicionThreshold = 0.5 // evict once suspicion crosses 50%
	ctrl := sys.Assure(cfg)

	// Suspicion persists across jobs: submit the analysis a few times,
	// as a stream of client requests would.
	for round := 1; round <= 3; round++ {
		res, err := ctrl.Run(workload.AirlineScript)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: verified=%v latency=%.2fs attempts=%d deviant-replicas=%d suspects=%v\n",
			round, res.Verified, float64(res.LatencyUs)/1e6, res.Attempts, res.FaultyReplicas, res.Suspects)
		fmt.Printf("         suspicion(%s)=%.2f category=%v excluded=%v\n",
			evil, sys.Susp.Level(evil), sys.Susp.CategoryOf(evil), sys.Susp.Excluded(evil))

		if round == 3 {
			top, err := sys.FS.ReadTree(res.Outputs["out/airline/overall"])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println("\nverified top airports (overall traffic):")
			for i, l := range top {
				if i >= 10 {
					break
				}
				fmt.Printf("  %2d. %s\n", i+1, l)
			}
		}
	}
}
