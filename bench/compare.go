package main

import (
	"fmt"
	"io"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved" // the repetitions spread wider than the bound
)

// judge applies one metric's bound to the repetitions of a baseline (a)
// and a candidate (b). The medians decide; when either side's own
// repetitions spread wider than the bound, a difference of that size
// means nothing and the pair is unresolved rather than unchanged.
func judge(d metricDef, a, b []float64) (v verdict, medA, medB, spread float64) {
	medA, medB = p50(a), p50(b)
	spread = max(quartileSpread(a), quartileSpread(b))
	if medA == 0 {
		return unresolved, medA, medB, spread
	}
	change := (medB - medA) / medA // positive = larger
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spread > d.Bound:
		return unresolved, medA, medB, spread
	case change > d.Bound:
		return worse, medA, medB, spread
	case change < -d.Bound:
		return better, medA, medB, spread
	}
	return within, medA, medB, spread
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// -out files and reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	collect := func(doc document) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range doc.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				out[r.Workload][d.Name] = append(out[r.Workload][d.Name], r.Metrics[d.Name])
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		if va[wl.name] == nil || vb[wl.name] == nil {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := va[wl.name][d.Name], vb[wl.name][d.Name]
			v, medA, medB, spread := judge(d, xa, xb)
			change := 0.0
			if medA != 0 {
				change = (medB - medA) / medA
			}
			fmt.Fprintf(w, "%-13s %-15s %12.4f %12.4f %+7.1f%% %6.1f%% %6.0f%%  %s (n=%d,%d)\n",
				wl.name, d.Name, medA, medB, 100*change, 100*spread, 100*d.Bound, v, len(xa), len(xb))
			anyWorse = anyWorse || v == worse
		}
	}
	return anyWorse, nil
}
