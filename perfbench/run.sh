#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-kernels --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout: the Go build cache, the binary, span traces
# and the cluster workload's artifact caches. Nothing is fetched: the
# benchmark module needs only the Go toolchain and the program's module
# one directory up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
	export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
