package faultsim

import (
	"fmt"
	"testing"
)

func testBenchConfig() ShardBenchConfig {
	cfg := DefaultShardBench()
	cfg.Clusters = 96
	cfg.Keys = 24
	return cfg
}

// TestShardBenchMergeIdenticalAcrossShardCounts is the cross-shard
// convergence check of the scaling experiment: the merged evidence
// stream, the FaultAnalyzer's convictions and the eviction set must be
// byte-identical whether verdicts ran through 1 pipeline or 8. The
// per-sid partitioning argument (DESIGN.md §13) says they must.
func TestShardBenchMergeIdenticalAcrossShardCounts(t *testing.T) {
	var base *ShardBenchResult
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := testBenchConfig()
		cfg.Shards = shards
		res := ShardBench(cfg)
		if res.Reports == 0 || res.Verdicts == 0 {
			t.Fatalf("shards=%d: empty workload: %+v", shards, res)
		}
		if res.Evidence == 0 || res.Convictions == 0 {
			t.Fatalf("shards=%d: no Byzantine evidence surfaced: %+v", shards, res)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Fingerprint != base.Fingerprint {
			t.Errorf("shards=%d fingerprint %s != shards=1 %s", shards, res.Fingerprint, base.Fingerprint)
		}
		if res.Evidence != base.Evidence || res.Verdicts != base.Verdicts ||
			res.Convictions != base.Convictions || res.Evicted != base.Evicted ||
			res.WorkTotal != base.WorkTotal {
			t.Errorf("shards=%d diverged: %+v vs %+v", shards, res, base)
		}
	}
}

// TestShardBenchReplaysByteIdentically pins fixed-seed fixed-shard-count
// determinism, including with per-shard BFT sequencing groups running
// concurrently over one shared network.
func TestShardBenchReplaysByteIdentically(t *testing.T) {
	for _, seq := range []bool{false, true} {
		cfg := testBenchConfig()
		cfg.Shards = 4
		cfg.Clusters = 48
		cfg.BFTSequence = seq
		a, b := ShardBench(cfg), ShardBench(cfg)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("bft=%v: replay diverged: %s vs %s", seq, a.Fingerprint, b.Fingerprint)
		}
		if seq && a.BFTCommits == 0 {
			t.Error("sequencing enabled but no shard group committed a batch")
		}
	}
}

// TestShardBenchCriticalPathScales asserts the deterministic scaling
// claim under the work model the matcher actually has: a report costs
// its pipeline one unit (the per-key tally update) and a verdict one
// unit per vote it fingerprints, so pipelines hold W = 2 units per
// report against S = 1 serial unit per report (submission) plus the
// merged events. Amdahl bounds the 8-shard critical path at
// (S+W)/(S+W/8) ~ 2.4x, with 3x the ceiling at any shard count — the
// bar is 2x, and the partitioning must land within 10% of the bound
// (hash imbalance is all that separates them).
func TestShardBenchCriticalPathScales(t *testing.T) {
	cfg := testBenchConfig()
	cfg.Shards = 1
	one := ShardBench(cfg)
	cfg.Shards = 8
	eight := ShardBench(cfg)
	speedup := float64(one.SpanUnits) / float64(eight.SpanUnits)
	if speedup < 2 {
		t.Errorf("critical-path speedup at 8 shards = %.2fx (span %d -> %d), want >= 2x",
			speedup, one.SpanUnits, eight.SpanUnits)
	}
	bound := float64(one.SpanUnits) / (float64(eight.SerialUnits) + float64(eight.WorkTotal)/8)
	if speedup < 0.9*bound {
		t.Errorf("critical-path speedup %.2fx is below 90%% of the balanced-partition bound %.2fx", speedup, bound)
	}
	if want := 2 * uint64(one.Reports); one.WorkTotal != want {
		t.Errorf("pipeline work = %d units for %d reports, want %d (1 per report + 1 per fingerprinted vote)",
			one.WorkTotal, one.Reports, want)
	}
}

// BenchmarkVerdictThroughput is the shard-sweep wall-clock benchmark
// folded into BENCH_dataplane.json (scripts/bench_dataplane.sh). Each
// op verifies a full workload; records/op reports digest reports
// processed, so throughput in reports/sec is records_per_op / (ns/op
// / 1e9). Wall-clock scaling tracks the deterministic SpanUnits curve
// only when GOMAXPROCS provides a core per shard.
func BenchmarkVerdictThroughput(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		// "=" not "-": the GOMAXPROCS suffix on benchmark names is
		// "-N", and bench_dataplane.sh strips exactly that.
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var reports int64
			for i := 0; i < b.N; i++ {
				cfg := testBenchConfig()
				cfg.Shards = shards
				res := ShardBench(cfg)
				reports += int64(res.Reports)
			}
			b.ReportMetric(float64(reports)/float64(b.N), "records/op")
		})
	}
}
