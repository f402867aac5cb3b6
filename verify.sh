#!/bin/sh
# verify.sh — the full pre-merge gate: formatting, static checks, build,
# and the test suite under the race detector. Tier-1 CI runs
# `go build ./... && go test ./...`; this script is the stricter local
# superset referenced from ROADMAP.md.
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
go test -race ./...

step "metrics lint and the query front door"
# Scrapes /metrics from a live in-process server after real traffic and
# validates the exposition (Prometheus text grammar, histogram
# invariants, OpenMetrics exemplar syntax, sirius_slo_* presence)
# through the telemetry linter, and that each layer is timed once: no
# sirius_kernel_seconds beside sirius_stage_kernel_seconds, stage
# latency only for asr/qa/imm, no sirius_cache_* family (the query path
# has no result cache), and no counter that restates a histogram's
# _count or an error reason (sirius_queries_total, sirius_shed_total,
# sirius_timeouts_total, sirius_stream_partials_total). Then the one
# /v1/query body decoder: its fuzz target over the seed corpus (no
# panic, every rejection a 4xx reason from the envelope vocabulary), and
# the two hostile bodies — a WAV declaring 1 Hz and a PNG declaring
# 8192x8192 — each refused with a 400 before the server allocates 1 MB.
go test -race -run 'TestMetricsLint|FuzzQueryBody|TestHostileWAVRateRejected|TestHostilePNGDimensionsRejected' -count=1 ./internal/sirius/

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
echo "flag definitions outside bench/: $flags (cap 64)"
if [ "$flags" -gt 64 ]; then
    echo "flag definitions outside bench/: $flags, above the cap of 64" >&2
    exit 1
fi

step "metric families"
# Every metric family is a name an operator must learn and a fact that
# must be recorded once. The distinct sirius_*/cluster_* family names in
# non-test Go outside bench/ may not grow back past what they were cut
# to: a new fact needs a new family, a restated one does not.
families=$(grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    '"(sirius|cluster)_[a-z0-9_]+"' . | sort -u | wc -l | tr -d ' ')
echo "metric family names outside bench/: $families (cap 41)"
if [ "$families" -gt 41 ]; then
    echo "metric family names outside bench/: $families, above the cap of 41" >&2
    exit 1
fi

step "exported surface"
# Every exported identifier is a promise a reader must check and a test
# must keep. TestExportedSurface type-checks the module and fails on any
# exported identifier under internal/ that no other package's non-test
# code names (unexport it), and on any identifier that no non-test code
# names at all (delete it, or keep it in a _test.go file or on the
# test's oracle list). TestExportedFieldsAreSet fails on an exported
# field under internal/ that non-test code reads and none sets (bench/
# counts as a setter): a knob nothing sets is a constant. The tests
# guard which symbols; the grep below is the cheap backstop on how
# many, in non-test Go outside bench/.
go test -count=1 -run 'TestExportedSurface|TestExportedFieldsAreSet' ./internal/surface/
exported=$(grep -rE --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build \
    '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' . | wc -l | tr -d ' ')
echo "exported funcs, methods and types outside bench/: $exported (cap 503)"
if [ "$exported" -gt 503 ]; then
    echo "exported funcs, methods and types outside bench/: $exported, above the cap of 503" >&2
    exit 1
fi

step "kernel parity smoke"
# The packed GEMM must agree with the naive kernel bit-for-bit across
# the ragged-shape matrix, the int8 kernel within its quantization
# tolerance, and the DNN's int8 transcripts must equal its fp64 ones on
# the seed utterances (the end-to-end guardrail for quantized scoring;
# the GMM bank has no int8 kernel and must refuse int8). The one asr
# scorer must give a block of frames exactly the rows its frames score to
# one at a time, for every engine at every precision it scores (GMM fp64,
# DNN fp64 and int8: the chunk invariance streaming rests on). The
# graph's factored cross-word arcs must give back every dense weight bit
# for bit, and the one Viterbi search, one token per state over words
# that end in optional silence tails, must match the arc-by-arc
# reference token for token, frame by frame, and allocate nothing per
# frame. The flat GMM bank must
# give componentLogLikelihood's component scores bit for bit, senone
# scores within 1e-12 of the log-add reference, the same row for a frame
# in any block at any width, and no allocation; the front end's
# table-driven power spectrum must equal the reference FFT's bit for bit
# (seeded and fuzz corpus) and a push must not allocate per frame. Each
# engine must transcribe exactly its pinned share of the 42 queries per
# precision, on the bench recordings and a held-out set, clean and at
# 20 dB, and a DNN pipeline must give a recognizer built on its own the
# same text and score bit for bit, one-shot and streamed, at fp64 and
# int8. The search index's posting-list
# walk must give the term-at-a-time reference's documents, order, scores
# and term frequencies bit for bit, over one build and over fresh builds
# of one document stream at sizes from 1 to 1 500 documents (the flat
# index against the map-of-postings one it replaced), a built index must
# hold no more than its flat layout (6 bytes
# a posting, its text once, no array over 1 % slack), and the sharded tier
# at the request shape the scatter sends must rank exactly as the
# unsharded index. The
# DNN's minibatch trainer, three GEMMs per layer, must give the
# sample-at-a-time reference's weights, biases and losses bit for bit,
# and the frozen network's one forward (Served.Forward) must give the
# loops it replaced bit for bit at both precisions: refForward at widths
# 1, 2 and 0, refForwardI8 at int8; training the network after freezing
# it must not move a served score.
# The regex kernel's compiled backtracker must give the recursive matcher
# it replaced (refMatch) the same match, index and captures: every served
# pattern over the QA corpus and the query set, and nested and
# empty-capable loops at random; patterns exponential for that matcher
# must finish on 4 KB inputs with stdlib's answer, and a match must
# allocate nothing but its result. The Porter stemmer must give the
# stemmer it replaced (refStem) the same stem for every word of the QA
# corpus, the queries and the Suite's word list, random words and the
# fuzz seeds, and a word of up to 32 bytes whose stem is a prefix of it
# must stem without allocating. A text question and a text command
# through the pipeline, a recognition on the GMM at fp64 and on the DNN
# at fp64 and int8, a leaf's shard.Exec on a kb shard, one streamed
# 200 ms chunk and one stream Finish (TestAllocBudgets), an
# Index.Search (TestSearchAllocsBounded) and a GEMM's dispatch to the
# pool (TestMulParallelConstantDispatchAllocs) must stay within their
# allocation budgets (like TestMatchAllocs these need a run without
# -race). Each Sirius Suite kernel is one function of a width, width 1
# its single-threaded baseline, and its output must not depend on the
# width: the same keypoints (FE) and descriptors (FD) bit for bit, the
# same stems, the same DNN log-posteriors from Served.Forward and the same
# GEMM product, and the same IMM label, votes and ranking; ParallelWidth
# at width 1 must be one call over the whole range while the pool is
# wider, and width <= 0 the pool's width.
go test -count=1 -run 'TestKernelParityPacked|TestKernelParityI8|TestMulParallelMatchesMul|TestParallelWidthResolvesWidth|TestMulParallelConstantDispatchAllocs' ./internal/mat/
go test -count=1 -run 'TestTrainMatchesReference|TestServedMatchesReference|TestTrainAfterFreezeLeavesServedUnchanged|TestForwardBatchWidthInvariant' ./internal/dnn/
go test -count=1 -run 'TestDetectTiledMatchesSerial|TestDescribeAllParallelMatchesSerial' ./internal/vision/
go test -count=1 -run 'TestMatchParallelAgreesWithSerial|TestMatchPoolWorkersAgreesWithSerial' ./internal/imm/
go test -count=1 -run 'TestBankComponentScoresBitExact|TestBankScoreMatchesLogLikelihood|TestBankScoreBlockEqualsRows|TestBankScoreSeesEMAfterNewBank|TestBankScoreZeroAllocs' ./internal/gmm/
go test -count=1 -run 'TestPowerSpectrumBitExact|FuzzPowerSpectrumBitExact|TestStreamExtractorParity|TestStreamExtractorPushAllocsFlat' ./internal/audio/
go test -count=1 -run 'TestInt8TranscriptParity|TestScorerBlockEqualsRows' ./internal/asr/
go test -count=1 -run 'TestNBest|TestStepZeroAllocSteadyState|TestGraphFactoringExact' ./internal/hmm/
go test -count=1 -run 'TestTranscriptsByEngine|TestAllocBudgets' ./internal/sirius/
go test -count=1 -run 'TestWalkMatchesReference|TestFlatIndexMatchesReference|TestIndexFootprint|TestSearchAllocsBounded' ./internal/search/
go test -count=1 -run 'TestShardedParity' ./internal/shard/
go test -count=1 -run 'TestServedPatternsMatchReference|TestEmptyLoopsMatchReference|TestMatchAllocs|TestPathologicalPatternsBounded' ./internal/nlp/regex/
go test -count=1 -run 'TestStemMatchesReference|FuzzStemMatchesReference|TestStemAllocs|TestStemAllVariants' ./internal/nlp/stemmer/

step "leaf frame codec"
# A leaf answers the aggregator in one binary frame (internal/shard/wire.go),
# the search tier's network decoder. Every response a kb leaf gives the
# parity queries, the benchmark's 256 draws over its 4 leaves and
# hand-built edge cases (empty and non-ASCII text, zero postings, every
# count at its cap) must decode to the Response encoded, field for field;
# the fuzz target over its seed corpus (valid, truncated and over-count
# frames) must never panic, and a frame it accepts must re-encode to the
# same bytes; and a decode must cost at most 4 allocations whatever the
# frame holds (without -race, like TestMatchAllocs).
go test -count=1 -run 'TestWireRoundTrip|TestDecodeResponseAllocs|FuzzDecodeResponse' ./internal/shard/

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
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
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
