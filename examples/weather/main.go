// Weather analysis with a fully BFT control tier: the paper's §6.4
// configuration. The average-temperature script runs with 3f+1 worker
// replicas and chunked digests (one digest every d records), while the
// request handler itself is replicated over 3f+1 PBFT replicas that
// order every batch of digest verdicts — no implicit trust anywhere.
//
//	go run ./examples/weather
package main

import (
	"fmt"
	"log"

	"clusterbft"
	"clusterbft/internal/core"
	"clusterbft/internal/workload"
)

func main() {
	const (
		f = 2
		d = 500 // records per digest: approximation accuracy knob
	)

	cfg := clusterbft.DefaultConfig()
	cfg.F = f
	cfg.R = 3*f + 1
	cfg.DigestChunk = d
	sys := clusterbft.New(32, 3, cfg)
	sys.LoadData(workload.WeatherPath, workload.Weather(40_000, 200, 11)...)

	res, err := sys.Run(workload.WeatherScript)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data plane: verified=%v latency=%.2fs replicas=%d digests=%d (d=%d records)\n",
		res.Verified, float64(res.LatencyUs)/1e6, cfg.R, res.DigestReports, d)

	// Control tier: 3f+1 request-handler replicas order the verdicts.
	controlUs, batches, err := core.ControlTierTime(f, res.DigestReports)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("control tier: %d PBFT replicas ordered %d verdict batches in %.3fs (virtual)\n",
		3*f+1, batches, float64(controlUs)/1e6)
	fmt.Printf("end-to-end assured latency: %.2fs\n",
		float64(res.LatencyUs+controlUs)/1e6)

	hist, err := sys.Output(res, "out/weather/histogram")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naverage-temperature histogram (%d buckets), first rows:\n", len(hist))
	for i, l := range hist {
		if i >= 8 {
			break
		}
		fmt.Println(" ", l)
	}
}
