#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program (see bench/main.go). Run from the root of a checkout:
#
#   bash bench/run.sh --workload follower_clean --seed 1 --seconds 15 --trace 0
#
# The binary and Go's build cache live in .bench_build/ inside the
# checkout, so nothing is read from or written to the user's own cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a clusterbft checkout (go.mod, internal/ and bench/ must be here)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"

# bench/ is its own module (it may not add to the repository's build), so
# it is built from inside its directory. Rebuilding is a no-op once cached.
# Everything the go command writes (build cache, work directory, module
# path, its own configuration and telemetry) is pointed into the checkout.
(
	cd "$root/bench"
	GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/bench" .
)
exec "$build/bench" "$@"
