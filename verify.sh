#!/bin/sh
# verify.sh — the full pre-merge gate: formatting, static checks, build,
# the test suite under the race detector and again without it, and the
# smokes. Tier-1 is `go build ./... && go test ./...`; this script runs
# both and is what CI runs.
set -e

cd "$(dirname "$0")"

# step ends the step before it, printing its wall time, and starts the
# next; `step` with no name ends the last one and prints the total.
started=$(date +%s)
step_started=$started
step_name=
step() {
    now=$(date +%s)
    if [ -n "$step_name" ]; then
        echo "-- $step_name: $((now - step_started)) s"
    fi
    step_name=$1
    step_started=$now
    if [ -n "$1" ]; then
        echo "== $1 =="
    else
        echo "-- total: $((now - started)) s"
    fi
}

# cap checks a surface count against its cap in both directions: above
# it the surface grew back, below it a deletion left the cap behind, so
# the cap always equals the count.
cap() {
    echo "$1: $2 (cap $3)"
    if [ "$2" -gt "$3" ]; then
        echo "$1: $2, above the cap of $3" >&2
        exit 1
    fi
    if [ "$2" -lt "$3" ]; then
        echo "$1: $2, below the cap of $3; lower the cap to $2" >&2
        exit 1
    fi
}

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

step "go test -race"
# Among it the metrics lint and the query front door: TestMetricsLint
# scrapes /metrics from a live in-process server after real traffic and
# lints the exposition; FuzzQueryBody's seed corpus and the hostile
# bodies (a WAV declaring 1 Hz, a PNG declaring 8192x8192) hold the one
# /v1/query decoder to 4xx envelopes before it allocates.
go test -race ./...

step "kernel packages stay clock-free"
# Timing belongs to the stage that calls a kernel (asr, qa, imm, sirius);
# the kernel packages must not grow a timer, or the telemetry import one
# needs, back. The list is taken first so a failing `go list` stops the
# script instead of leaving grep nothing to match.
deps=$(go list -deps ./internal/mat ./internal/gmm ./internal/dnn ./internal/hmm)
if printf '%s\n' "$deps" | grep -qx 'sirius/internal/telemetry'; then
    echo "internal/{mat,gmm,dnn,hmm} depend on sirius/internal/telemetry" >&2
    exit 1
fi

step "flag count"
# Every flag is a knob an operator must understand and a test must reach,
# so the number of flag definitions outside bench/ may not grow back past
# what it was cut to. A knob nothing sets is a constant.
flags=$(grep -rE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build \
    'flag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(' . | wc -l | tr -d ' ')
cap "flag definitions outside bench/" "$flags" 58

step "metric families"
# Every metric family is a name an operator must learn and a fact that
# must be recorded once. The distinct sirius_*/cluster_* family names in
# non-test Go outside bench/ may not grow back past the 39 they were cut
# to: a new fact needs a new family, a restated one does not.
families=$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    '"(sirius|cluster)_[a-z0-9_]+"' . | sort -u | wc -l | tr -d ' ')
cap "metric family names outside bench/" "$families" 39

step "exported surface"
# Every exported identifier is a promise a reader must check and a test
# must keep. TestExportedSurface type-checks the module and fails on any
# exported identifier under internal/ that no other package's non-test
# code names (unexport it), and on any identifier that no non-test code
# names at all (delete it, or keep it in a _test.go file or on the
# test's oracle list). TestExportedFieldsAreSet fails on an exported
# field under internal/ that non-test code reads and none sets (bench/
# counts as a setter): a knob nothing sets is a constant. Two more rules
# cover the fields of exported structs under internal/ without a json
# tag, counting every write and read in the module, tests, bench/ and
# examples/ included. Rule K (TestConfigFieldsAreKnobs): a field that
# only its own package's nullary Default* function writes always holds
# one value, so it is an unexported constant; the test's knobs map
# allowlists the fields bench/ passes whole, each with its reason, and
# fails on an entry no longer needed. Rule D (TestExportedFieldsAreRead):
# a field some code writes and no code reads goes. These tests run in the
# suite; they guard which symbols, and the grep below is the cheap
# backstop on how many, in non-test Go outside bench/: the 453 there
# are.
exported=$(grep -rE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' . | wc -l | tr -d ' ')
cap "exported funcs, methods and types outside bench/" "$exported" 453

step "go test"
# The suite again without -race, where the checks that race
# instrumentation would skew run in full: allocation budgets
# (TestAllocBudgets, TestMatchAllocs, TestScorerPlumbingAllocsPerBlock,
# TestDecodeResponseAllocs, the zero-alloc frame steps), the pool
# assertions -race's sync.Pool defeats, seed grids it shortens, and the
# bench smoke's voice_dnn_i8 subtest. Among its parity invariants: the
# packed GEMM equals the naive kernel bit for bit and the int8 one within
# its quantization tolerance; the DNN trainer and the frozen forward
# equal their sample-at-a-time and loop references bit for bit, at any
# width; a scorer's block equals its rows one at a time on every engine
# and precision; int8 transcripts equal fp64 ones; the Viterbi search
# equals the arc-by-arc reference token for token, frame by frame, and
# the factored cross-word arcs give back every dense weight; the flat GMM
# bank, the table-driven power spectrum, the posting-list walk, the
# sharded tier, the leaf frame codec, the regex backtracker and the
# Porter stemmer equal their references; and each engine transcribes its
# pinned share of the 42 queries (TestTranscriptsByEngine).
go test -count=1 ./...

step "batch dispatch x20"
# The eager worker's tests hold a scoring call shut instead of sleeping, so
# twenty rounds under the race detector take seconds and a scheduling
# flake shows here, before merge.
go test -race -count=20 ./internal/batch/

step "kernel bench smoke"
# Every kernel micro-benchmark lives as a testing.B in its kernel's own
# package; one iteration each proves they all still compile and run. The
# GEMM crossovers DESIGN.md cites are regenerated with
#   go test -bench BenchmarkMulVariants ./internal/mat
go test -run '^$' -bench . -benchtime 1x ./internal/mat ./internal/gmm ./internal/dnn \
    ./internal/hmm ./internal/imm ./internal/audio ./internal/search ./internal/shard \
    ./internal/vision ./internal/nlp/...

step "reproduction harness smoke"
# sirius-bench drives every figure, table, ablation and scorecard from
# one experiment table; -list proves the table is wired.
go run ./cmd/sirius-bench -list >/dev/null

step "search oracle (bench -workload search, seeds 1-3)"
# The benchmark's search workload serves the 100k-document corpus from 4
# leaves behind the frontend and checks every served top 10 against the
# unsharded index; it exits non-zero on a mismatch, a partial reply
# included, or on any error. It runs here as it runs in the benchmark,
# built once from bench/.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir/bench" ./bench
for seed in 1 2 3; do
    "$bindir/bench" -workload search -seed "$seed" -seconds 3 -trace 0 >"$bindir/search-$seed.out" || {
        cat "$bindir/search-$seed.out" >&2
        echo "bench -workload search -seed $seed failed" >&2
        exit 1
    }
    tail -n 1 "$bindir/search-$seed.out"
done

step "cluster smoke (frontend + 2 backends + 2 search shards + autoscaler churn)"
# One process harness runs an ordered table of phases over real
# processes (the phase table is in cmd/sirius-clustersmoke's package
# comment): front door, error envelopes, observability, request
# lifecycle (a 1 ms X-Sirius-Timeout-Ms voice query is the 503 timeout
# envelope, a burst against a -max-inflight 1 backend sheds with the 429
# overloaded one), stream (partials before end-of-audio, final equal to
# the one-shot transcript), precision, search tier (scatter-gather parity
# with the unsharded index; a stalled shard gives partial:true inside a
# 250 ms budget) and churn (the autoscaler scales 1 -> >1 -> 1 under a
# ~10x ramp with zero client 5xx and the dcsim p99 within 2 buckets of
# the measured one). Every kind of process must answer /healthz,
# /metrics and /debug/pprof/, every /metrics scrape must lint clean, and
# a child whose output shows a panic or a fatal error fails the run.
# Teardown SIGTERMs the children in reverse start order.
go build -o "$bindir" ./cmd/sirius-frontend ./cmd/sirius-server ./cmd/sirius-autoscaler ./cmd/sirius-clustersmoke
# The smoke binary enforces its own fixed 240 s deadline, most of it for
# the autoscaler churn phase; the outer `timeout` (where available) is a
# belt-and-braces guard against a wedged runtime.
smoke="$bindir/sirius-clustersmoke -server-bin $bindir/sirius-server -frontend-bin $bindir/sirius-frontend -autoscaler-bin $bindir/sirius-autoscaler"
if command -v timeout >/dev/null 2>&1; then
    timeout 300 $smoke
else
    $smoke
fi

step
echo "verify: OK"
