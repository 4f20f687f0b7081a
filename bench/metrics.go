package main

import "slices"

// metric is one named number the benchmark prints. End-to-end metrics
// carry the share of the parent's median by which they may worsen before
// a change counts as a regression; per-layer metrics explain, and have
// no bound. BENCHMARK.json at the repository root repeats this table for
// the driver; bench_test.go keeps the two equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, per workload. One bound
// has to hold on all five workloads. The bounds follow the quartile spread
// of ten runs with ten seeds on the reference host (README.md,
// "Baseline"): host-normalised times spread by up to 10 % there, so they
// get the widest bound the driver allows; counts and virtual times repeat
// to a few parts in ten thousand and keep the tight bounds.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"assured_wall_ms_p50", "ref_ms", lower, 0.25},
	{"plain_wall_ms_p50", "ref_ms", lower, 0.25},
	{"assurance_tax", "ratio", lower, 0.25},
	{"assured_cpu_ms_p50", "ref_ms", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.01},
	{"alloc_mb_per_op", "MB", lower, 0.02},
	{"virt_latency_s", "virt_s", lower, 0.001},
	{"virt_cpu_s", "virt_s", lower, 0.001},
	{"virt_latency_x", "ratio", lower, 0.001},
}

// failedOpPct is printed with the end-to-end metrics but is not one of
// the driver's: its only acceptable value is 0, and the driver reads
// failures from the attempted/failed counts instead.
var failedOpPct = metric{"failed_op_pct", "%", lower, 0}

// reported is every end-to-end metric a report carries.
var reported = append(slices.Clone(endToEnd), failedOpPct)

// perLayer lists the single-layer metrics of the traced pass, grouped by
// the module they measure.
var perLayer = []metric{
	{Name: "pig.parse_us", Unit: "us", Better: lower},
	{Name: "analyze.mark_us", Unit: "us", Better: lower},
	{Name: "mapred.compile_us", Unit: "us", Better: lower},
	{Name: "mapred.map_tasks", Unit: "count", Better: lower},
	{Name: "mapred.reduce_tasks", Unit: "count", Better: lower},
	{Name: "mapred.records_in", Unit: "count", Better: lower},
	{Name: "mapred.records_out", Unit: "count", Better: lower},
	{Name: "mapred.shuffle_records", Unit: "count", Better: lower},
	{Name: "mapred.combined_records", Unit: "count", Better: higher},
	{Name: "mapred.shuffle_mb", Unit: "MB", Better: lower},
	{Name: "mapred.spec_tasks", Unit: "count", Better: lower},
	{Name: "mapred.tasks_hung", Unit: "count", Better: lower},

	{Name: "tuple.decode_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "tuple.encode_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "digest.ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "digest.records", Unit: "count", Better: lower},
	{Name: "digest.reports", Unit: "count", Better: lower},

	{Name: "dfs.ingest_ms_p50", Unit: "ms", Better: lower},
	{Name: "dfs.scan_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "dfs.block_encode_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "dfs.block_decode_ns_per_rec", Unit: "ns/rec", Better: lower},
	{Name: "dfs.read_mb", Unit: "MB", Better: lower},
	{Name: "dfs.write_mb", Unit: "MB", Better: lower},
	{Name: "dfs.blocks_spilled", Unit: "count", Better: lower},
	{Name: "dfs.spill_mb", Unit: "MB", Better: lower},
	{Name: "dfs.max_resident_mb", Unit: "MB", Better: lower},
	{Name: "dfs.stored_raw_pct", Unit: "%", Better: lower},

	{Name: "core.verdict_ms", Unit: "ms", Better: lower},
	{Name: "core.verdict_us_per_report", Unit: "us", Better: lower},
	{Name: "core.decide_ms", Unit: "ms", Better: lower},
	{Name: "core.attempts", Unit: "count", Better: lower},
	{Name: "core.clusters", Unit: "count", Better: lower},
	{Name: "core.faulty_replicas", Unit: "count", Better: lower},
	{Name: "core.suspects", Unit: "count", Better: lower},
	{Name: "core.ckpt_saves", Unit: "count", Better: lower},
	{Name: "core.ckpt_hits", Unit: "count", Better: higher},
	{Name: "core.committed_cpu_ratio", Unit: "ratio", Better: higher},
	{Name: "core.recovery_cpu_ratio", Unit: "ratio", Better: lower},

	{Name: "bft.order_ms", Unit: "ms", Better: lower},
	{Name: "bft.invoke_us", Unit: "us", Better: lower},
	{Name: "bft.virt_order_ms", Unit: "virt_ms", Better: lower},
	{Name: "bft.batches", Unit: "count", Better: lower},

	{Name: "pool.speedup_x", Unit: "x", Better: higher},
	{Name: "obs.overhead_pct", Unit: "%", Better: lower},
	{Name: "obs.spans", Unit: "count", Better: lower},
	{Name: "obs.spans_dropped", Unit: "count", Better: lower},

	{Name: "cpu_share.pig", Unit: "%", Better: lower},
	{Name: "cpu_share.analyze", Unit: "%", Better: lower},
	{Name: "cpu_share.mapred", Unit: "%", Better: lower},
	{Name: "cpu_share.tuple", Unit: "%", Better: lower},
	{Name: "cpu_share.digest", Unit: "%", Better: lower},
	{Name: "cpu_share.dfs", Unit: "%", Better: lower},
	{Name: "cpu_share.core", Unit: "%", Better: lower},
	{Name: "cpu_share.bft", Unit: "%", Better: lower},
	{Name: "cpu_share.pool", Unit: "%", Better: lower},
	{Name: "cpu_share.cluster", Unit: "%", Better: lower},
	{Name: "cpu_share.obs", Unit: "%", Better: lower},
	{Name: "cpu_share.runtime_gc", Unit: "%", Better: lower},
	{Name: "cpu_share.other", Unit: "%", Better: lower},

	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: lower},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: lower},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.noise_pct", Unit: "%", Better: lower},
	{Name: "bench.samples", Unit: "count", Better: higher},
	{Name: "bench.plain_virt_latency_s", Unit: "virt_s", Better: lower},
	{Name: "bench.assured_wall_raw_ms", Unit: "ms", Better: lower},
	{Name: "bench.plain_wall_raw_ms", Unit: "ms", Better: lower},
	{Name: "bench.yardstick_ms", Unit: "ms", Better: lower},
}

// value is one measured metric: a single number, or the median of N
// samples with their quartiles.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// values maps metric names to measurements and fills in units from the
// tables above when results are assembled.
type values map[string]value

func (v values) set(name string, x float64) { v[name] = value{Value: x} }

// med records the median of samples with its sample count and quartiles.
func (v values) med(name string, samples []float64) {
	q1, q2, q3 := quartiles(samples)
	v[name] = value{Value: q2, N: len(samples), Q1: q1, Q3: q3}
}

// withUnits returns the listed metrics of v, each with its unit.
func (v values) withUnits(defs []metric) values {
	out := make(values, len(defs))
	for _, d := range defs {
		if x, ok := v[d.Name]; ok {
			x.Unit = d.Unit
			out[d.Name] = x
		}
	}
	return out
}
