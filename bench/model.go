package main

import (
	"sort"
	"time"

	"sirius/internal/dcsim"
)

// predictPaced asks dcsim what the paced phase's p90 should have been:
// the exact arrival schedule that was played, served at the service
// times the closed phase measured for the same inputs. The query
// topologies are a pool of as many servers as there are cores, each
// request joining the one that frees first; search is a fan-out whose
// arms are the leaf spans of the traced phase (leafRows, one row per
// traced request). The measured value over
// the prediction is the model-error column.
func predictPaced(paced phase, closed phase, leafRows [][]time.Duration) (time.Duration, error) {
	if len(paced.samples) == 0 {
		return 0, nil
	}
	// Replay the schedule in due order.
	byDue := append([]sample(nil), paced.samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	arrivals := make([]time.Duration, len(byDue))
	for i, s := range byDue {
		arrivals[i] = s.due
	}
	if len(leafRows) > 0 {
		services := make([][]time.Duration, len(arrivals))
		for i := range services {
			services[i] = leafRows[i%len(leafRows)]
		}
		res, err := dcsim.SimulateFanout(arrivals, services, dcsim.FanoutSpec{Shards: len(leafRows[0])})
		return res.Response.P90, err
	}
	perOp := map[int][]float64{}
	var all []float64
	for _, s := range closed.samples {
		if !s.out.failed {
			perOp[s.op] = append(perOp[s.op], ms(s.latency()))
			all = append(all, ms(s.latency()))
		}
	}
	services := make([]time.Duration, len(arrivals))
	for i, s := range byDue {
		v := p50(all)
		if xs := perOp[s.op]; len(xs) > 0 {
			v = p50(xs)
		}
		services[i] = time.Duration(v * float64(time.Millisecond))
	}
	res, err := dcsim.SimulateCluster(arrivals, services, nil, dcsim.ClusterSpec{Servers: clients, Policy: dcsim.PolicyLeast})
	return res.Response.P90, err
}
