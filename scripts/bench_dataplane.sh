#!/usr/bin/env sh
# Regenerates BENCH_dataplane.json: the tracked ns/op, B/op and allocs/op
# baseline of the per-record data plane (see bench_dataplane_test.go and
# EXPERIMENTS.md "Data-plane micro-benchmarks"), plus the matcher's
# per-report cost (BenchmarkMatcherObserve in internal/core: ns_per_op /
# records_per_op must not grow with keys).
# Run from the repo root:
#
#   scripts/bench_dataplane.sh [extra go-test args]
#
# Compare a work-in-progress change against the committed baseline with
# `git diff BENCH_dataplane.json` before updating it.
set -eu

cd "$(dirname "$0")/.."
out=BENCH_dataplane.json

{
	go test -run='^$' -bench='BenchmarkDataplane' -benchmem "$@" ./internal/mapred/
	go test -run='^$' -bench='BenchmarkMatcherObserve' -benchmem "$@" ./internal/core/
} |
	awk '
	BEGIN { print "{"; first = 1 }
	/^goos:/ { goos = $2 }
	/^goarch:/ { goarch = $2 }
	/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
	$1 ~ /^Benchmark(Dataplane|MatcherObserve)/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/^BenchmarkDataplane/, "", name)
		sub(/^Benchmark/, "", name)
		ns = ""; bytes = ""; allocs = ""; records = ""
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "B/op") bytes = $i
			if ($(i + 1) == "allocs/op") allocs = $i
			if ($(i + 1) == "records/op") records = $i
		}
		if (ns == "") next
		if (!first) printf ",\n"
		first = 0
		printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"records_per_op\": %s}", \
			name, ns, bytes, allocs, records
	}
	END {
		printf "\n  ,\"_meta\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"note\": \"per-op = one batch; records_per_op records per batch\"}\n", goos, goarch, cpu
		print "}"
	}' >"$out.tmp"
mv "$out.tmp" "$out"
echo "wrote $out"
