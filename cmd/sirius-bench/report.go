package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"sirius/internal/accel"
	"sirius/internal/asr"
	"sirius/internal/dcsim"
	"sirius/internal/kb"
	"sirius/internal/profile"
	"sirius/internal/sirius"
	"sirius/internal/suite"
	"sirius/internal/vision"
)

// harness owns the shared expensive state: the end-to-end pipeline and
// the Suite kernels.
type harness struct {
	pipeline *sirius.Pipeline
	suite    map[suite.Kernel]*suite.Benchmark
	// measuredTimes are per-service baseline decompositions measured on
	// the live pipeline (single worker).
	measuredTimes map[accel.Service]accel.ServiceTimes
	// classLat caches per-query measured latencies by class.
	classLat map[kb.QueryClass][]time.Duration
	perQuery []queryMeasurement
	wsLat    []time.Duration
}

// queryMeasurement is one end-to-end query run.
type queryMeasurement struct {
	Latency sirius.Latency
	Samples int // utterance length: the work that sets ASR's latency
}

// newHarness builds the pipeline and the Suite kernels at their default
// input-set size. The pipeline runs its kernels on one core (the mat
// pool's width is process-wide), so a live figure's component wall time
// is its one-core time, as the paper's cycle breakdowns are, however
// many cores sit idle; Table 5 passes its widths explicitly.
func newHarness() (*harness, error) {
	cfg := sirius.DefaultConfig()
	cfg.Workers = 1
	p, err := sirius.New(cfg)
	if err != nil {
		return nil, err
	}
	return &harness{
		pipeline: p,
		suite:    suite.Build(suite.DefaultScale()),
		classLat: map[kb.QueryClass][]time.Duration{},
	}, nil
}

// inputSetReps is how many times runInputSet runs each query, keeping
// the fastest: the figures compare maxima and minima across queries, so
// one descheduled run (tests of other packages share the cores) must not
// stand for its query.
const inputSetReps = 3

// runInputSet executes the full 42-query input set through the pipeline
// (voice for VC and VQ, voice plus image matching for VIQ) and records
// each query's fastest total and, per service, its fastest latency (see
// fastest). The set is run inputSetReps times over, not each query
// inputSetReps times in a row, so a burst of load on the machine lands
// on one run of a query rather than on all of them. Idempotent: later
// calls reuse the measurements.
func (h *harness) runInputSet() error {
	if len(h.perQuery) > 0 {
		return nil
	}
	queries := kb.AllQueries()
	reqs := make([]sirius.Request, len(queries))
	for i, q := range queries {
		samples, err := asr.SynthesizeText(h.pipeline.Lexicon(), q.Text, int64(4000+i))
		if err != nil {
			return err
		}
		reqs[i] = sirius.Request{Samples: samples}
		if q.Class == kb.VoiceImageQuery {
			scene := vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
			reqs[i].Image = vision.Warp(scene, vision.DefaultWarp(int64(600+i)))
		}
	}
	resps := make([]sirius.Response, len(queries))
	for rep := 0; rep < inputSetReps; rep++ {
		for i, req := range reqs {
			r, err := h.pipeline.Process(context.Background(), req)
			if err != nil {
				return err
			}
			if rep == 0 {
				resps[i] = r
				continue
			}
			resps[i].Latency = fastest(resps[i].Latency, r.Latency)
		}
	}
	for i, q := range queries {
		h.perQuery = append(h.perQuery, queryMeasurement{Latency: resps[i].Latency, Samples: len(reqs[i].Samples)})
		h.classLat[q.Class] = append(h.classLat[q.Class], resps[i].Latency.Total)
	}
	// Web-search baseline: BM25 queries against the same corpus, timed
	// like the Sirius side, fastest of inputSetReps interleaved passes: a
	// probe takes microseconds, so one descheduled run would move the mean.
	ix := kb.BuildCorpus(kb.DefaultCorpusConfig())
	h.wsLat = make([]time.Duration, len(queries))
	for rep := 0; rep < inputSetReps; rep++ {
		for i, q := range queries {
			start := time.Now()
			ix.Search(q.Text, 10)
			if d := time.Since(start); rep == 0 || d < h.wsLat[i] {
				h.wsLat[i] = d
			}
		}
	}
	return nil
}

// fastest merges two runs of one query: the lower total, and for each
// service the run where that service was faster, with that run's
// components. A service is a small part of a voice query's total, so the
// run with the fastest total does not also have each service's fastest
// time.
func fastest(a, b sirius.Latency) sirius.Latency {
	a.Total = min(a.Total, b.Total)
	if b.ASR < a.ASR {
		a.ASR, a.ASRFeature, a.ASRScoring, a.ASRSearch = b.ASR, b.ASRFeature, b.ASRScoring, b.ASRSearch
	}
	if b.QA < a.QA {
		a.QA, a.QAStemming, a.QARegex, a.QACRF, a.QARetrieval = b.QA, b.QAStemming, b.QARegex, b.QACRF, b.QARetrieval
		a.QAFilterHits, a.QAFilterTime = b.QAFilterHits, b.QAFilterTime
	}
	if b.IMM < a.IMM {
		a.IMM, a.IMMFE, a.IMMFD, a.IMMSearch = b.IMM, b.IMMFE, b.IMMFD, b.IMMSearch
	}
	return a
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func minMax(ds []time.Duration) (time.Duration, time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	mn, mx := ds[0], ds[0]
	for _, d := range ds {
		if d < mn {
			mn = d
		}
		if d > mx {
			mx = d
		}
	}
	return mn, mx
}

// --- Fig 1 / Fig 7a ------------------------------------------------------

// fig7aResult is the scalability-gap experiment.
type fig7aResult struct {
	WebSearchMean time.Duration
	SiriusMean    time.Duration
	Gap           float64
}

// runFig7a measures the average web-search and Sirius query latencies on
// this machine and derives the machine-scaling gap.
func (h *harness) runFig7a() (fig7aResult, error) {
	if err := h.runInputSet(); err != nil {
		return fig7aResult{}, err
	}
	var all []time.Duration
	for _, ds := range h.classLat {
		all = append(all, ds...)
	}
	r := fig7aResult{WebSearchMean: mean(h.wsLat), SiriusMean: mean(all)}
	r.Gap = dcsim.ScalabilityGap(r.SiriusMean, r.WebSearchMean)
	return r, nil
}

// fig7a prints the gap.
func fig7a(e env) (string, error) {
	r, err := e.h.runFig7a()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7a — Scalability Gap (this machine; paper: 91 ms vs ~15 s -> 165x)\n")
	fmt.Fprintf(&b, "  web search mean latency : %12v\n", r.WebSearchMean)
	fmt.Fprintf(&b, "  Sirius query mean       : %12v\n", r.SiriusMean)
	fmt.Fprintf(&b, "  scalability gap         : %10.1fx machines\n", r.Gap)
	return b.String(), nil
}

// --- Fig 7b ---------------------------------------------------------------

// fig7bResult reports mean latency per query class.
type fig7bResult struct {
	WS, VC, VQ, VIQ time.Duration
}

// runFig7b computes Fig 7b's bars.
func (h *harness) runFig7b() (fig7bResult, error) {
	if err := h.runInputSet(); err != nil {
		return fig7bResult{}, err
	}
	return fig7bResult{
		WS:  mean(h.wsLat),
		VC:  mean(h.classLat[kb.VoiceCommand]),
		VQ:  mean(h.classLat[kb.VoiceQuery]),
		VIQ: mean(h.classLat[kb.VoiceImageQuery]),
	}, nil
}

// fig7b prints the class means.
func fig7b(e env) (string, error) {
	r, err := e.h.runFig7b()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7b — Mean latency by query type (paper shape: WS << VC < VQ <= VIQ)\n")
	fmt.Fprintf(&b, "  WS  %12v\n  VC  %12v\n  VQ  %12v\n  VIQ %12v\n", r.WS, r.VC, r.VQ, r.VIQ)
	return b.String(), nil
}

// --- Fig 8a ---------------------------------------------------------------

// serviceSpread is one service's latency distribution summary. Ratio is
// Max/Min — the variability measure Fig 8a highlights (QA spans 1.7 s to
// 35 s in the paper while ASR and IMM stay tight).
type serviceSpread struct {
	Service        string
	Min, Mean, Max time.Duration
	Ratio          float64
}

// runFig8a summarizes per-service latency variability. ASR and IMM are
// read from the input set's voice runs. QA is measured as the paper
// characterizes each service, on its own inputs: the VQ questions through
// the text path, fastest of five runs (Fig 8b's measurement). Inside a
// voice query QA runs on caches the recognizer has just evicted, which
// adds a cost per query that does not depend on the question and so
// compresses the spread this figure is about.
func (h *harness) runFig8a() ([]serviceSpread, error) {
	if err := h.runInputSet(); err != nil {
		return nil, err
	}
	var asrL, qaL, immL []time.Duration
	for _, m := range h.perQuery {
		if m.Latency.ASR > 0 {
			asrL = append(asrL, m.Latency.ASR)
		}
		if m.Latency.IMM > 0 {
			immL = append(immL, m.Latency.IMM)
		}
	}
	qaRows, _, err := h.runFig8bc()
	if err != nil {
		return nil, err
	}
	for _, r := range qaRows {
		qaL = append(qaL, r.Total)
	}
	mk := func(name string, ds []time.Duration) serviceSpread {
		mn, mx := minMax(ds)
		sp := serviceSpread{Service: name, Min: mn, Mean: mean(ds), Max: mx}
		if mn > 0 {
			sp.Ratio = float64(mx) / float64(mn)
		}
		return sp
	}
	return []serviceSpread{mk("ASR", asrL), mk("QA", qaL), mk("IMM", immL)}, nil
}

// fig8a prints the per-service spreads.
func fig8a(e env) (string, error) {
	rows, err := e.h.runFig8a()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8a — Latency variability by service (paper: QA widest)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s min %10v  mean %10v  max %10v  max/min %5.1fx\n", r.Service, r.Min, r.Mean, r.Max, r.Ratio)
	}
	return b.String(), nil
}

// --- Fig 8b / Fig 8c ------------------------------------------------------

// qaBreakdownRow is one VQ query's QA component split (Fig 8b) plus its
// filter hits (Fig 8c x-axis).
type qaBreakdownRow struct {
	ID                  string
	Stemmer, Regex, CRF time.Duration
	Total               time.Duration
	FilterHits          int
	FilterTime          time.Duration
}

// runFig8bc runs the VQ set through QA and reports component breakdowns
// and the latency/filter-hit correlation.
func (h *harness) runFig8bc() ([]qaBreakdownRow, float64, error) {
	var rows []qaBreakdownRow
	for _, q := range kb.VoiceQueries {
		// Take the fastest of five runs to suppress scheduler noise at
		// the microsecond scale these queries run at in Go. The filter
		// time is a small part of a run and is correlated on its own, so
		// it takes its own minimum.
		resp, _ := h.pipeline.Process(context.Background(), sirius.Request{Text: q.Text})
		filterTime := resp.Latency.QAFilterTime
		for rep := 0; rep < 4; rep++ {
			r, _ := h.pipeline.Process(context.Background(), sirius.Request{Text: q.Text})
			filterTime = min(filterTime, r.Latency.QAFilterTime)
			if r.Latency.QA < resp.Latency.QA {
				resp = r
			}
		}
		rows = append(rows, qaBreakdownRow{
			ID:         q.ID,
			Stemmer:    resp.Latency.QAStemming,
			Regex:      resp.Latency.QARegex,
			CRF:        resp.Latency.QACRF,
			Total:      resp.Latency.QA,
			FilterHits: resp.Latency.QAFilterHits,
			FilterTime: filterTime,
		})
	}
	// Pearson correlation between the time spent inside the per-hit
	// document filters and the number of hits — the paper's Fig 8c
	// relationship. Question analysis, retrieval and per-sentence
	// stemming are hit-independent and excluded.
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, float64(r.FilterHits))
		ys = append(ys, r.FilterTime.Seconds())
	}
	return rows, pearson(xs, ys), nil
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// fig8bc prints the QA breakdowns and their correlation.
func fig8bc(e env) (string, error) {
	rows, corr, err := e.h.runFig8bc()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8b — OpenEphyra component breakdown per VQ query\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s stem %9v  regex %9v  crf %9v  total %9v  hits %3d\n",
			r.ID, r.Stemmer, r.Regex, r.CRF, r.Total, r.FilterHits)
	}
	fmt.Fprintf(&b, "Fig 8c — corr(QA latency, filter hits) = %.2f (paper: strong positive)\n", corr)
	return b.String(), nil
}

// --- Fig 9 ----------------------------------------------------------------

// cycleRow is one service's hot-component share of its cycles.
type cycleRow struct {
	Service    string
	Components map[string]float64 // fraction of service time
	HotShare   float64            // sum over named hot components
}

// runFig9 computes per-service component shares from the measured runs.
func (h *harness) runFig9() ([]cycleRow, error) {

	if err := h.runInputSet(); err != nil {
		return nil, err
	}
	var asrScore, asrSearch, asrFeat, asrTotal float64
	var qaStem, qaRegex, qaCRF, qaRetr, qaTotal float64
	var immFE, immFD, immSearch, immTotal float64
	for _, m := range h.perQuery {
		asrScore += m.Latency.ASRScoring.Seconds()
		asrSearch += m.Latency.ASRSearch.Seconds()
		asrFeat += m.Latency.ASRFeature.Seconds()
		asrTotal += m.Latency.ASR.Seconds()
		qaStem += m.Latency.QAStemming.Seconds()
		qaRegex += m.Latency.QARegex.Seconds()
		qaCRF += m.Latency.QACRF.Seconds()
		qaRetr += m.Latency.QARetrieval.Seconds()
		qaTotal += m.Latency.QA.Seconds()
		immFE += m.Latency.IMMFE.Seconds()
		immFD += m.Latency.IMMFD.Seconds()
		immSearch += m.Latency.IMMSearch.Seconds()
		immTotal += m.Latency.IMM.Seconds()
	}
	mk := func(name string, total float64, comps map[string]float64, hot []string) cycleRow {
		row := cycleRow{Service: name, Components: map[string]float64{}}
		for c, v := range comps {
			if total > 0 {
				row.Components[c] = v / total
			}
		}
		for _, c := range hot {
			row.HotShare += row.Components[c]
		}
		return row
	}
	return []cycleRow{
		mk("ASR", asrTotal, map[string]float64{"scoring": asrScore, "hmm-search": asrSearch, "frontend": asrFeat},
			[]string{"scoring", "hmm-search"}),
		mk("QA", qaTotal, map[string]float64{"stemmer": qaStem, "regex": qaRegex, "crf": qaCRF, "search": qaRetr},
			[]string{"stemmer", "regex", "crf"}),
		mk("IMM", immTotal, map[string]float64{"fe": immFE, "fd": immFD, "ann-search": immSearch},
			[]string{"fe", "fd"}),
	}, nil
}

// fig9 prints the hot-component shares.
func fig9(e env) (string, error) {
	rows, err := e.h.runFig9()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 — Cycle breakdown per service (paper: hot components dominate)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-4s hot=%5.1f%% :", r.Service, 100*r.HotShare)
		keys := make([]string, 0, len(r.Components))
		for k := range r.Components {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%5.1f%%", k, 100*r.Components[k])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// --- Fig 10 ---------------------------------------------------------------

// fig10 renders the IPC / bottleneck table and speedup bound.
func fig10(env) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — IPC, pipeline bottlenecks and the stall-free speedup bound\n")
	for _, k := range suite.Kernels {
		p := profile.Breakdowns[k]
		fmt.Fprintf(&b, "  %-8s IPC %.1f  retire %4.0f%%  frontend %4.0f%%  spec %4.0f%%  backend %4.0f%%  bound %.1fx\n",
			k, p.IPC, 100*p.Retiring, 100*p.FrontEnd, 100*p.BadSpeculation, 100*p.BackEnd,
			profile.StallFreeSpeedupBound(p))
	}
	fmt.Fprintf(&b, "  mean stall-free bound: %.1fx (paper: ~3x; accelerators required)\n", profile.MeanSpeedupBound())
	return b.String(), nil
}

// --- Table 5 / Fig 13 ------------------------------------------------------

// table5Row is one kernel's speedups across platforms.
type table5Row struct {
	Kernel      suite.Kernel
	MeasuredCMP float64 // live goroutine speedup on this machine
	Calibrated  map[accel.Platform]float64
	Analytic    map[accel.Platform]float64
}

// runTable5 measures live CMP speedups and collects model speedups.
func (h *harness) runTable5(workers int, minTime time.Duration) []table5Row {
	var rows []table5Row
	for _, k := range suite.Kernels {
		bench := h.suite[k]
		serial := suite.Measure(bench, 1, minTime)
		par := suite.Measure(bench, workers, minTime)
		row := table5Row{
			Kernel:      k,
			MeasuredCMP: float64(serial.PerRun) / float64(par.PerRun),
			Calibrated:  map[accel.Platform]float64{},
			Analytic:    map[accel.Platform]float64{},
		}
		for _, p := range accel.Platforms {
			row.Calibrated[p] = accel.MustSpeedup(k, p)
			row.Analytic[p] = accel.AnalyticSpeedup(k, p)
		}
		rows = append(rows, row)
	}
	return rows
}

// tab5 prints the speedup table, its live CMP column measured at this
// machine's width.
func tab5(e env) (string, error) {
	rows := e.h.runTable5(runtime.GOMAXPROCS(0), e.minTime)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5 / Fig 13 — Sirius Suite speedups over one core\n")
	fmt.Fprintf(&b, "  %-8s %10s | %6s %6s %6s %6s | %6s %6s %6s %6s\n",
		"kernel", "CMP(live)", "CMP", "GPU", "Phi", "FPGA", "aCMP", "aGPU", "aPhi", "aFPGA")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %9.1fx | %6.1f %6.1f %6.1f %6.1f | %6.1f %6.1f %6.1f %6.1f\n",
			r.Kernel, r.MeasuredCMP,
			r.Calibrated[accel.CMP], r.Calibrated[accel.GPU], r.Calibrated[accel.Phi], r.Calibrated[accel.FPGA],
			r.Analytic[accel.CMP], r.Analytic[accel.GPU], r.Analytic[accel.Phi], r.Analytic[accel.FPGA])
	}
	b.WriteString("  (CMP(live) measured with goroutines on this machine; calibrated = paper Table 5; a* = analytic model)\n")
	return b.String(), nil
}
