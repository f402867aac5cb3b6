#!/bin/sh
# verify.sh — the full pre-merge gate: formatting, static checks, build,
# and the test suite under the race detector. Tier-1 CI runs
# `go build ./... && go test ./...`; this script is the stricter local
# superset referenced from ROADMAP.md.
set -e

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== metrics lint =="
# Scrapes /metrics from a live in-process server after real traffic and
# validates the exposition (Prometheus text grammar, histogram
# invariants, OpenMetrics exemplar syntax, sirius_slo_* presence)
# through the telemetry linter.
go test -race -run TestMetricsLint -count=1 ./internal/sirius/

echo "== kernel parity smoke =="
# The packed GEMM must agree with the naive kernel bit-for-bit across
# the ragged-shape matrix, the int8 kernel within its quantization
# tolerance, and int8 transcripts must equal fp64 on the seed
# utterances (the end-to-end guardrail for quantized scoring). The one
# asr scorer must give a block of frames exactly the rows its frames score
# to one at a time, for both engines at both precisions (the chunk
# invariance streaming rests on). The graph's factored cross-word arcs
# must give back every dense weight bit for bit, and the n-best search
# every rescoring recognizer runs (and the 1-best search over the same
# tables) must match the arc-by-arc reference token for token, frame by
# frame, and allocate nothing per frame.
go test -count=1 -run 'TestKernelParityPacked|TestKernelParityI8' ./internal/mat/
go test -count=1 -run 'TestInt8TranscriptParity|TestScorerBlockEqualsRows' ./internal/asr/
go test -count=1 -run 'TestNBest|TestGraphFactoringExact' ./internal/hmm/

echo "== batch dispatch x20 =="
# The eager worker's tests hold a scoring call shut instead of sleeping, so
# twenty rounds under the race detector take seconds and a scheduling
# flake shows here, before merge.
go test -race -count=20 ./internal/batch/

echo "== kernel bench smoke =="
# A fast sweep of the kernel micro-benchmarks: proves the -bench-json
# path stays wired and every kernel (GEMM, DNN, GMM, Viterbi, k-d) still
# runs outside `go test`. Full numbers are regenerated with
#   go run ./cmd/sirius-bench -bench-json BENCH_PR4.json -bench-large
benchout=$(mktemp)
go run ./cmd/sirius-bench -bench-json "$benchout" -bench-time 5ms
rm -f "$benchout"

echo "== cluster smoke (1 frontend + 2 backends + 2 search shards + autoscaler churn) =="
# Backend 2 runs under -max-inflight 1; the smoke asserts a 1 ms
# X-Sirius-Timeout-Ms voice query returns the 503 timeout envelope, a
# concurrent burst sheds with the 429 overloaded envelope + Retry-After,
# and sirius_shed_total / sirius_timeouts_total advance on /metrics.
# Next it streams the same synthesized utterance through the frontend's
# /v1/stream: at least one stabilized partial must land before
# end-of-audio and the final transcript must match the one-shot
# /v1/query answer, with the stream counters advancing on both tiers.
# It then boots two sirius-server leaves (-shard i/2), checks /v1/search
# scatter-gather parity against the unsharded index, kills shard 1,
# replaces it with a -shard-delay-stalled leaf, and asserts a 250 ms
# shard budget still answers 200 + partial:true while
# sirius_shard_partials_total advances on a lint-clean /metrics.
# Finally the churn phase: a second frontend whose backend pool is owned
# by sirius-autoscaler ramps ~10x while the controller scales the pool
# 1 -> >1 -> 1 under its bounds with zero client-visible 5xx and the
# dcsim-predicted p99 within 2 histogram buckets of the measured one.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/sirius-frontend ./cmd/sirius-server ./cmd/sirius-autoscaler ./cmd/sirius-clustersmoke
# The smoke binary enforces its own -timeout deadline (raised to 240 s
# for the autoscaler churn phase); the outer `timeout` (where available)
# is a belt-and-braces guard against a wedged runtime.
smoke="$bindir/sirius-clustersmoke -server-bin $bindir/sirius-server -frontend-bin $bindir/sirius-frontend -autoscaler-bin $bindir/sirius-autoscaler -timeout 240s"
if command -v timeout >/dev/null 2>&1; then
    timeout 300 $smoke
else
    $smoke
fi

echo "verify: OK"
