// Quickstart: run one data-analysis script under ClusterBFT protection.
//
// The example generates a synthetic Twitter follower graph, runs the
// paper's follower-count script with the default configuration (f=1,
// four replicas, two verification points chosen by the graph analyzer)
// on a simulated 16-node untrusted tier, and prints the verified output.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"clusterbft"
	"clusterbft/internal/workload"
)

func main() {
	// 1. One deployment: trusted storage, an untrusted worker tier of 16
	//    nodes with 3 task slots each, and the trusted control tier over
	//    them (engine, overlap-maximizing scheduler, ClusterBFT controller).
	sys := clusterbft.New(16, 3, clusterbft.DefaultConfig())

	// 2. The input dataset, into trusted storage.
	sys.LoadData(workload.TwitterPath, workload.Twitter(20_000, 500, 1)...)

	// 3. Submit the script.
	res, err := sys.Run(workload.FollowerScript)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("verified: %v in %.2f virtual seconds (%d sub-graphs, %d digests)\n",
		res.Verified, float64(res.LatencyUs)/1e6, res.Clusters, res.DigestReports)

	// 4. Read the verified winner replica's output.
	lines, err := sys.Output(res, "out/twitter/followers")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d users with followers; first few:\n", len(lines))
	for i, l := range lines {
		if i >= 10 {
			break
		}
		fmt.Println(" ", l)
	}
}
