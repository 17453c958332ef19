#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# Run from the repository root; every argument goes to the benchmark:
#
#   bash bench/run.sh --workload gups-64p --seed 1 --seconds 23 --trace 0
#
# Go's build cache, config, module state and temporary files live under
# .bench_build in the current directory, so a run writes nothing outside
# it. The benchmark runs offline: the bench module needs only the
# repository's own module (see bench/go.mod).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
