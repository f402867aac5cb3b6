package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "closed_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "closed_qps", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v * 1.01, v, v * 1.005} }
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lower, steady(10), steady(10), within},
		{"slower within bound", lower, steady(10), steady(10.8), within},
		{"slower beyond bound", lower, steady(10), steady(11.5), worse},
		{"faster beyond bound", lower, steady(10), steady(8), better},
		{"throughput down", higher, steady(100), steady(85), worse},
		{"throughput up", higher, steady(100), steady(120), better},
		{"noisy baseline", lower, []float64{8, 9, 10, 11, 12, 13}, steady(12), unresolved},
		{"noisy candidate", lower, steady(10), []float64{8, 9, 10, 11, 12, 13}, unresolved},
		{"single runs", lower, []float64{10}, []float64{12}, worse},
	}
	for _, c := range cases {
		if got, _, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
