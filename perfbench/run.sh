#!/usr/bin/env bash
# Builds the benchmark and histwalkd from the checkout this script sits
# in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload svc|batch|crawl|all --seed N --seconds S --trace 0|1
#
# Every build product, cache and temporary file stays under
# <checkout>/.bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/histwalkd" || ! -f "$root/BENCHMARK.json" ]]; then
	echo "perfbench: $root is not a histwalk checkout (need go.mod, cmd/histwalkd and BENCHMARK.json)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
unset GOGC GOMAXPROCS GODEBUG

(cd "$root" && go build -o "$build/bin/histwalkd" ./cmd/histwalkd)
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
