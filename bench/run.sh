#!/usr/bin/env bash
# Builds the end-to-end benchmark and biorankd from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh --workload cold_query --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --seed 1            # every workload, traced
#
# Binaries, the Go build cache and every run artefact stay under
# .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/biorankd || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a biorank checkout" >&2
	exit 2
fi

out=$PWD/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/biorankd" ./cmd/biorankd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -server "$out/biorankd" "$@"
