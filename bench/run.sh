#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it with the arguments given
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything the build writes — the binary, Go's build cache and its
# temporary files — goes under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it. The first build of a checkout
# compiles the standard library too and takes about a minute; later
# ones are a cache lookup.
#
# The go command's telemetry follows XDG_CONFIG_HOME, and in a fresh
# configuration directory it forks a detached "** telemetry **" sidecar
# that outlives a go command which ends at once (as it does where there
# is no program to build). The mode file — what `go telemetry off`
# writes — is therefore put there before go first runs: no counters, no
# sidecar, and no process of ours is left behind on any path out.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 2
fi
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
