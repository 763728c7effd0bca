#!/usr/bin/env bash
# Builds heterod and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload measure_hot --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh compare -base base-results -head head-results
#
# Everything it builds or writes stays under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -o "$out/heterod" ./cmd/heterod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -heterod "$out/heterod" -out "$out" "$@"
