#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sim-alert --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every file the benchmark writes stay
# under .bench_build/ in the current directory. Without the repository's
# sources next to bench/ the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/alertbench" .)
exec "$build/alertbench" "$@"
