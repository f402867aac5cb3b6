// Package kernelbench measures the repo's Sirius Suite kernel ports —
// GEMM (DNN), GMM bank scoring, Viterbi search, and k-d tree matching
// (the Table 4 workloads) — outside `go test`, so the numbers can be
// emitted as machine-readable JSON from cmd/sirius-bench and checked
// into benchmark reports. Each kernel is timed serial vs pool-parallel
// where both paths exist, and allocations per op are recorded to pin
// the zero-alloc steady-state contracts.
package kernelbench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"context"

	"sirius/internal/asr"
	"sirius/internal/dnn"
	"sirius/internal/gmm"
	"sirius/internal/hmm"
	"sirius/internal/imm"
	"sirius/internal/kb"
	"sirius/internal/mat"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/vision"
)

// Result is one kernel measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Workers is the parallel width the kernel ran at (1 = serial).
	Workers int `json:"workers"`
}

// Report is the full kernel sweep plus the machine shape that produced
// it — speedups are meaningless without the core count.
type Report struct {
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"numcpu"`
	Results    []Result `json:"results"`
}

// measure times op until minTime has elapsed (after one warm-up call)
// and counts its steady-state allocations.
func measure(name string, workers int, minTime time.Duration, op func()) Result {
	op() // warm caches, pools, and scratch
	var iters int
	start := time.Now()
	for time.Since(start) < minTime {
		op()
		iters++
	}
	elapsed := time.Since(start)
	allocs := testing.AllocsPerRun(1, op)
	return Result{
		Name:        name,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: allocs,
		Workers:     workers,
	}
}

// mulResults benchmarks the GEMM variants — naive, packed-panel,
// pool-parallel, and int8 SWAR — at n x n x n.
func mulResults(rng *rand.Rand, n int, tag string, minTime time.Duration) []Result {
	a := mat.NewDense(n, n)
	b := mat.NewDense(n, n)
	dst := mat.NewDense(n, n)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	bt := mat.NewDense(n, n)
	mat.TransposeInto(bt, b)
	qa := mat.QuantizeDense(a, false)
	qb := mat.QuantizeDense(bt, true)
	return []Result{
		measure("mul_naive_"+tag, 1, minTime, func() { mat.Mul(dst, a, b) }),
		measure("mul_packed_"+tag, 1, minTime, func() { mat.MulPacked(dst, a, b) }),
		measure("mul_parallel_"+tag, mat.Workers(), minTime, func() { mat.MulParallel(dst, a, b) }),
		measure("mul_i8_"+tag, 1, minTime, func() { mat.MulI8(dst, qa, qb) }),
	}
}

// mulLargeResults is the acceptance-size multiply: (512x2048)x(2048x2048),
// the shape where packed panels must beat naive and the int8 kernel must
// beat packed fp64.
func mulLargeResults(rng *rand.Rand, minTime time.Duration) []Result {
	a := mat.NewDense(512, 2048)
	b := mat.NewDense(2048, 2048)
	dst := mat.NewDense(512, 2048)
	a.Randomize(rng, 1)
	b.Randomize(rng, 1)
	bt := mat.NewDense(2048, 2048)
	mat.TransposeInto(bt, b)
	qa := mat.QuantizeDense(a, false)
	qb := mat.QuantizeDense(bt, true)
	return []Result{
		measure("mul_naive_512x2048x2048", 1, minTime, func() { mat.Mul(dst, a, b) }),
		measure("mul_packed_512x2048x2048", 1, minTime, func() { mat.MulPacked(dst, a, b) }),
		measure("mul_parallel_512x2048x2048", mat.Workers(), minTime, func() { mat.MulParallel(dst, a, b) }),
		measure("mul_i8_512x2048x2048", 1, minTime, func() { mat.MulI8(dst, qa, qb) }),
	}
}

func dnnResults(rng *rand.Rand, minTime time.Duration) []Result {
	net := dnn.New(rng, dnn.Sigmoid, 39, 256, 256, 144)
	x := make([]float64, 39)
	for i := range x {
		x[i] = rng.Float64()
	}
	dst := make([]float64, net.OutputDim())
	scratch := net.NewScratch()
	const batchRows = 32
	batch := mat.NewDense(batchRows, 39)
	batch.Randomize(rng, 1)
	net.QuantizeWeights()
	return []Result{
		measure("dnn_forward", 1, minTime, func() { _ = net.Forward(x) }),
		measure("dnn_forward_into", 1, minTime, func() { net.ForwardInto(dst, x, scratch) }),
		measure(fmt.Sprintf("dnn_forward_batch_%d", batchRows), mat.Workers(), minTime, func() { _ = net.ForwardBatch(batch) }),
		measure(fmt.Sprintf("dnn_forward_batch_i8_%d", batchRows), 1, minTime, func() { _ = net.ForwardBatchI8(batch) }),
	}
}

func gmmResults(rng *rand.Rand, minTime time.Duration) []Result {
	const (
		senones = 128
		mix     = 8
		dim     = 39
	)
	models := make([]*gmm.Model, senones)
	for i := range models {
		m := gmm.NewModel(mix, dim)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64()
			}
		}
		models[i] = m
	}
	bank := gmm.NewBank(models)
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, bank.States())
	qbank := bank.Quantize()
	return []Result{
		measure("gmm_bank_serial", 1, minTime, func() { bank.ScoreAll(dst, x) }),
		measure("gmm_bank_pool", mat.Workers(), minTime, func() { bank.ScoreAllParallel(dst, x, 0) }),
		measure("gmm_bank_i8", 1, minTime, func() { qbank.ScoreAll(dst, x) }),
	}
}

// tableScorer serves fixed per-frame senone scores: frame f (identified
// by its first element) scores senone s as table[f][s].
type tableScorer struct {
	table    [][]float64
	nSenones int
}

func (ts *tableScorer) NumSenones() int { return ts.nSenones }

func (ts *tableScorer) Score(_ context.Context, frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	for i, f := range frames {
		out[i] = ts.table[int(f[0])]
	}
	return out
}

func viterbiResults(minTime time.Duration) ([]Result, error) {
	lex := hmm.NewLexicon()
	lex.Add("go", []string{"k", "ow"})
	lex.Add("stop", []string{"s", "t", "aa", "p"})
	lm := hmm.NewBigram(lex)
	lm.Observe("go stop go")
	cfg := hmm.DefaultConfig()
	g, err := hmm.CompileGraph(lex, lm, cfg)
	if err != nil {
		return nil, err
	}
	phoneIdx := map[string]int{}
	for i, p := range g.Phones() {
		phoneIdx[p] = i
	}
	nSen := len(g.Phones()) * hmm.StatesPerPhone
	var table, frames [][]float64
	fi := 0
	for _, ph := range []string{"s", "t", "aa", "p", "k", "ow"} { // "stop go"
		for s := 0; s < hmm.StatesPerPhone; s++ {
			for r := 0; r < 3; r++ {
				row := make([]float64, nSen)
				for i := range row {
					row[i] = -20
				}
				row[phoneIdx[ph]*hmm.StatesPerPhone+s] = -1
				table = append(table, row)
				frames = append(frames, []float64{float64(fi)})
				fi++
			}
		}
	}
	d, err := hmm.NewDecoder(g, &tableScorer{table: table, nSenones: nSen}, cfg)
	if err != nil {
		return nil, err
	}
	return []Result{
		measure("viterbi_decode", 1, minTime, func() { _ = d.DecodeNBest(frames, 1) }),
	}, nil
}

func kdResults(rng *rand.Rand, minTime time.Duration) []Result {
	const points = 4096
	vecs := make([][vision.DescriptorSize]float64, points)
	owners := make([]int32, points)
	for i := range vecs {
		for d := range vecs[i] {
			vecs[i][d] = rng.Float64()
		}
		owners[i] = int32(i % 16)
	}
	tree := imm.BuildKDTree(vecs, owners)
	var q [vision.DescriptorSize]float64
	for d := range q {
		q[d] = rng.Float64()
	}
	return []Result{
		measure("kd_search2nn", 1, minTime, func() { _, _ = tree.Search2NN(&q, 200) }),
	}
}

// shardResults measures the sharded search tier end to end in-process:
// scatter one query to every shard (shard.Exec on its partition of a
// synthetic corpus, one goroutine per shard, mirroring the aggregator's
// fan-out) and merge under global statistics. Shard counts 1/2/4 at
// 100k documents; large additionally sweeps a 1M-document corpus (the
// web-scale shape, minutes of index build, so it is opt-in).
func shardResults(minTime time.Duration, large bool) []Result {
	type size struct {
		docs int
		tag  string
	}
	sizes := []size{{100_000, "100k"}}
	if large {
		sizes = append(sizes, size{1_000_000, "1m"})
	}
	var out []Result
	for _, sz := range sizes {
		cfg := kb.DefaultSynthConfig()
		cfg.Docs = sz.docs
		const nq = 64
		queries := make([][]string, nq)
		for i := range queries {
			queries[i] = search.QueryTerms(kb.SynthQuery(cfg, i))
		}
		for _, shards := range []int{1, 2, 4} {
			ixs := make([]*search.Index, shards)
			for s := range ixs {
				ixs[s] = kb.BuildSynthShard(cfg, s, shards)
			}
			qi := 0
			out = append(out, measure(fmt.Sprintf("shard_search_%dx%s", shards, sz.tag), shards, minTime, func() {
				terms := queries[qi%nq]
				qi++
				req := shard.Request{Terms: terms, K: shard.Overfetch(10)}
				resps := make([]shard.Response, len(ixs))
				var wg sync.WaitGroup
				for s := range ixs {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						resps[s] = shard.Exec(ixs[s], req, s, len(ixs))
					}(s)
				}
				wg.Wait()
				_ = shard.Merge(terms, resps, 10)
			}))
		}
	}
	return out
}

// streamResults measures the streaming ASR front-end in-process: full
// incremental sessions (chunked MFCC extraction + frame-synchronous
// Viterbi via asr.Stream) over a synthesized utterance, sweeping chunk
// size x concurrent streams. Two numbers per cell: time to the first
// stabilized partial (the user-visible responsiveness of the streaming
// API) and time to the final transcript. Each concurrent lane runs on
// its own Recognizer sharing the read-only Models, mirroring how a
// server hosts concurrent sessions.
func streamResults(minTime time.Duration) ([]Result, error) {
	lex, lm := kb.BuildLexicon()
	models, err := asr.TrainModels(lex.PhoneSet(), asr.DefaultTrainConfig())
	if err != nil {
		return nil, err
	}
	samples, err := asr.SynthesizeText(lex, "set my alarm for eight", 42)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, chunk := range []int{1600, 3200, 6400} { // 100/200/400 ms at 16 kHz
		for _, lanes := range []int{1, 2, 4} {
			recs := make([]*asr.Recognizer, lanes)
			for i := range recs {
				recs[i], err = asr.NewRecognizer(models, asr.EngineGMM, lex, lm, hmm.DefaultConfig())
				if err != nil {
					return nil, err
				}
			}
			// session runs one full streaming session and reports the
			// first-partial and final latencies from session start.
			session := func(r *asr.Recognizer) (time.Duration, time.Duration, error) {
				t0 := time.Now()
				st, err := r.NewStream(context.Background(), asr.StreamConfig{})
				if err != nil {
					return 0, 0, err
				}
				var first time.Duration
				for off := 0; off < len(samples); off += chunk {
					end := min(off+chunk, len(samples))
					p, err := st.Push(samples[off:end])
					if err != nil {
						return 0, 0, err
					}
					if p != nil && first == 0 {
						first = time.Since(t0)
					}
				}
				if _, err := st.Finish(); err != nil {
					return 0, 0, err
				}
				return first, time.Since(t0), nil
			}
			var (
				mu           sync.Mutex
				fpSum, fnSum time.Duration
				fpN, fnN     int
				firstErr     error
			)
			start := time.Now()
			for time.Since(start) < minTime {
				var wg sync.WaitGroup
				for i := 0; i < lanes; i++ {
					wg.Add(1)
					go func(r *asr.Recognizer) {
						defer wg.Done()
						first, final, err := session(r)
						mu.Lock()
						defer mu.Unlock()
						if err != nil {
							if firstErr == nil {
								firstErr = err
							}
							return
						}
						if first > 0 {
							fpSum += first
							fpN++
						}
						fnSum += final
						fnN++
					}(recs[i])
				}
				wg.Wait()
			}
			if firstErr != nil {
				return nil, firstErr
			}
			if fpN == 0 || fnN == 0 {
				return nil, fmt.Errorf("kernelbench: stream sweep c%d s%d emitted no partials", chunk, lanes)
			}
			out = append(out,
				Result{
					Name:    fmt.Sprintf("stream_first_partial_c%d_s%d", chunk, lanes),
					NsPerOp: float64(fpSum.Nanoseconds()) / float64(fpN),
					Workers: lanes,
				},
				Result{
					Name:    fmt.Sprintf("stream_final_c%d_s%d", chunk, lanes),
					NsPerOp: float64(fnSum.Nanoseconds()) / float64(fnN),
					Workers: lanes,
				})
		}
	}
	return out, nil
}

// Run sweeps every kernel. minTime bounds each measurement's timed loop;
// large additionally runs the 512x2048x2048 acceptance GEMM (minutes of
// CPU on a small box, so it is opt-in).
func Run(minTime time.Duration, large bool) (Report, error) {
	rng := rand.New(rand.NewSource(42))
	rep := Report{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	rep.Results = append(rep.Results, mulResults(rng, 128, "128", minTime)...)
	if large {
		rep.Results = append(rep.Results, mulLargeResults(rng, minTime)...)
	}
	rep.Results = append(rep.Results, dnnResults(rng, minTime)...)
	rep.Results = append(rep.Results, gmmResults(rng, minTime)...)
	vit, err := viterbiResults(minTime)
	if err != nil {
		return rep, err
	}
	rep.Results = append(rep.Results, vit...)
	rep.Results = append(rep.Results, kdResults(rng, minTime)...)
	rep.Results = append(rep.Results, shardResults(minTime, large)...)
	str, err := streamResults(minTime)
	if err != nil {
		return rep, err
	}
	rep.Results = append(rep.Results, str...)
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func WriteJSON(w io.Writer, rep Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
