#!/usr/bin/env bash
# Reports what the programs reach, as opposed to the tests: the statement
# coverage of every package over the command lines the stdout pins run and
# a short run of the benchmark. Run from the root of a checkout:
#
#   bash scripts/reach.sh
#
# It builds ./cmd/... with -cover -coverpkg=./... into a temporary
# directory, runs every command line listed in cmd/*/testdata/stdout.sha256
# from that command's directory (as TestStdoutDigests does), and one more,
# the unreplicated clusterbft baseline (-verify-policy none). It builds
# bench/ the same way and runs all five workloads at 2 % scale for half a
# second each, untraced. The bench's main package is built with coverage
# too, since a binary whose main package counts nothing writes no counters,
# but it is left out of the report: `go tool cover` cannot resolve a package
# of the nested module. It then prints each package's reach over all the
# runs; for dfs, digest, mapred, core and verify, every function with a
# statement no run reached, as "file:line func unreached/total" statements;
# and for tuple, obs and bft, the functions no run reached. Last it prints
# the non-test line count of verify, the trusted decision core. A manual
# command: neither tier-1 nor CI runs it.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd ]]; then
	echo "scripts/reach.sh: run from the root of a clusterbft checkout" >&2
	exit 2
fi

root=$PWD
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/cov"

go build -cover -coverpkg=./... -o "$work/bin/" ./cmd/...

# run DIR NAME ARGS...: runs the built command NAME in cmd/DIR, counting.
run() {
	local dir=$1
	shift
	echo "reach: $*" >&2
	(cd "$root/cmd/$dir" && GOCOVERDIR=$work/cov GOMAXPROCS=2 "$work/bin/$1" "${@:2}" >/dev/null)
}

for pins in cmd/*/testdata/stdout.sha256; do
	dir=$(basename "$(dirname "$(dirname "$pins")")")
	while read -r sum line; do
		[[ -z $sum || $sum == \#* ]] && continue
		read -ra argv <<<"$line"
		run "$dir" "${argv[@]}"
	done <"$pins"
done
run clusterbft clusterbft -script testdata/front.pig -input in/edges=testdata/edges.tsv -verify-policy none

# bench/ is its own module, so it is built from inside its directory.
(cd "$root/bench" && go build -cover -coverpkg=clusterbft/internal/...,clusterbft/bench -o "$work/bin/bench" .)
echo "reach: bench -scale-pct 2 -seconds 0.5 -trace 0" >&2
GOCOVERDIR=$work/cov GOMAXPROCS=2 "$work/bin/bench" -scale-pct 2 -seconds 0.5 -trace 0 -out "$work/bench" >/dev/null

echo "== reach per package"
pkgs=clusterbft/cmd/...,clusterbft/internal/...
go tool covdata percent -i "$work/cov" -pkg "$pkgs" | sed 's|^[[:space:]]*clusterbft/||' | sort

go tool covdata textfmt -i "$work/cov" -pkg "$pkgs" -o "$work/cover.out"
go tool cover -func="$work/cover.out" >"$work/funcs"
for pkg in dfs digest mapred core verify; do
	echo "== $pkg: functions with unreached statements (file:line func unreached/total)"
	# The first pass reads each function's file and first line; the
	# second charges every block of cover.out to the last function that
	# starts at or before it, unreached when no run counted it.
	awk -v p="clusterbft/internal/$pkg/" '
		NR == FNR {
			split($1, a, ":")
			if (index(a[1], p) != 1 || index(substr(a[1], length(p) + 1), "/") != 0) next
			n[a[1]]++; at[a[1], n[a[1]]] = a[2] + 0; name[a[1], n[a[1]]] = $2
			next
		}
		FNR == 1 { next }
		{
			split($1, a, ":")
			if (!(a[1] in n)) next
			stmts[$1] = $2; file[$1] = a[1]; line[$1] = a[2] + 0
			if ($3 > 0) hit[$1] = 1
		}
		END {
			for (b in stmts) {
				f = file[b]; i = n[f]
				while (i > 1 && at[f, i] > line[b]) i--
				total[f, i] += stmts[b]
				if (!(b in hit)) missed[f, i] += stmts[b]
			}
			for (k in missed) {
				split(k, fi, SUBSEP); f = fi[1]; i = fi[2]
				if (missed[k] == 0) continue
				sub(/^clusterbft\/internal\//, "", f)
				print f ":" at[k] " " name[k] " " missed[k] "/" total[k]
			}
		}' "$work/funcs" "$work/cover.out" | sort -t: -k1,1 -k2,2n
done
for pkg in tuple obs bft; do
	echo "== $pkg: functions no run reached"
	awk -v p="clusterbft/internal/$pkg/" 'index($1, p) == 1 && index(substr($1, length(p) + 1), "/") == 0 && $NF == "0.0%" { sub(/^clusterbft\/internal\//, "", $1); print $1, $2 }' "$work/funcs"
done

echo "== trusted decision core: $(cat $(ls internal/verify/*.go | grep -v '_test\.go$') | wc -l) non-test lines (internal/verify)"
