package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"sirius/internal/accel"
	"sirius/internal/dcsim"
	"sirius/internal/suite"
)

// dumpCSV writes every model-derived experiment (Table 5, Figs 14-21) as
// one tidy long-format table — experiment, subject, platform, metric,
// value — ready for any plotting tool. Live-measurement experiments
// (Figs 7-9) are excluded: their values depend on the machine and are
// printed by the text harness.
func dumpCSV(d dcsim.Design, w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"experiment", "subject", "platform", "metric", "value"}); err != nil {
		return err
	}
	row := func(exp, subject string, p accel.Platform, metric string, v float64) error {
		return cw.Write([]string{exp, subject, string(p), metric, strconv.FormatFloat(v, 'g', 8, 64)})
	}

	// Table 5 / Fig 13: calibrated and analytic speedups.
	for _, k := range suite.Kernels {
		for _, p := range accel.Platforms {
			if err := row("tab5", string(k), p, "speedup_calibrated", accel.MustSpeedup(k, p)); err != nil {
				return err
			}
			if err := row("tab5", string(k), p, "speedup_analytic", accel.AnalyticSpeedup(k, p)); err != nil {
				return err
			}
		}
	}
	// Fig 14-16, 18: per-service metrics.
	for _, svc := range accel.Services {
		base := d.Times[svc].Total()
		if err := row("fig14", string(svc), accel.Baseline, "latency_s", base.Seconds()); err != nil {
			return err
		}
		cmpLat := d.ServiceLatency(svc, accel.CMP)
		for _, p := range accel.Platforms {
			lat := d.ServiceLatency(svc, p)
			if err := row("fig14", string(svc), p, "latency_s", lat.Seconds()); err != nil {
				return err
			}
			if err := row("fig15", string(svc), p, "perf_per_watt_x", accel.PerfPerWatt(d.Times[svc], p, d.Mode)); err != nil {
				return err
			}
			if err := row("fig16", string(svc), p, "throughput_x", dcsim.SaturationThroughputImprovement(cmpLat, lat)); err != nil {
				return err
			}
			rel, err := d.TCO.RelativeDCTCO(p, float64(cmpLat)/float64(lat))
			if err != nil {
				return err
			}
			if err := row("fig18", string(svc), p, "relative_tco", rel); err != nil {
				return err
			}
		}
		// Fig 17: load sweep for GPU and FPGA.
		for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
			for _, rho := range fig17Loads {
				imp, err := dcsim.ThroughputImprovement(cmpLat, d.ServiceLatency(svc, p), rho)
				if err != nil {
					return err
				}
				if err := row("fig17", fmt.Sprintf("%s@rho=%.1f", svc, rho), p, "throughput_x", imp); err != nil {
					return err
				}
			}
		}
	}
	// Fig 20 / 21: query-class metrics.
	for _, p := range []accel.Platform{accel.GPU, accel.FPGA} {
		for _, c := range dcsim.QueryClasses {
			m, err := d.EvaluateClass(c, p)
			if err != nil {
				return err
			}
			if err := row("fig20", string(c), p, "latency_s", m.Latency.Seconds()); err != nil {
				return err
			}
			if err := row("fig20", string(c), p, "latency_reduction_x", m.LatencyReduction); err != nil {
				return err
			}
			if err := row("fig20", string(c), p, "perf_per_watt_x", m.PerfPerWatt); err != nil {
				return err
			}
			if err := row("fig20", string(c), p, "tco_reduction_x", m.TCOReduction); err != nil {
				return err
			}
		}
		lat, tco, err := d.AverageClassMetrics(p)
		if err != nil {
			return err
		}
		if err := row("fig20", "mean", p, "latency_reduction_x", lat); err != nil {
			return err
		}
		if err := row("fig20", "mean", p, "tco_reduction_x", tco); err != nil {
			return err
		}
		if err := row("fig21", "gap165", p, "residual_gap_x", dcsim.BridgedGap(paperGap, lat)); err != nil {
			return err
		}
	}
	return nil
}
