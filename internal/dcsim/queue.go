// Package dcsim models the warehouse-scale-computer level of the paper's
// study (§5.2): M/M/1 server queueing (Fig 17), throughput at a latency
// constraint (Fig 16), the Google TCO model parameterized by Table 7
// (Fig 18), homogeneous and heterogeneous datacenter design selection
// (Fig 19, Tables 8-9), query-level datacenter comparisons (Fig 20), and
// the scalability gap (Figs 1, 7a, 21).
package dcsim

import (
	"fmt"
	"math"
	"time"
)

// MM1 models one server as an M/M/1 queue with the given service rate
// (queries per second = 1 / mean service latency).
type MM1 struct {
	ServiceRate float64
}

// NewMM1 builds the queue model from a mean service latency.
func NewMM1(serviceLatency time.Duration) MM1 {
	return MM1{ServiceRate: 1 / serviceLatency.Seconds()}
}

// ResponseTime returns the mean response time (queueing + service) at
// arrival rate lambda. It errors when the queue is unstable (lambda >=
// service rate).
func (q MM1) ResponseTime(lambda float64) (time.Duration, error) {
	if lambda < 0 {
		return 0, fmt.Errorf("dcsim: negative arrival rate %v", lambda)
	}
	if lambda >= q.ServiceRate {
		return 0, fmt.Errorf("dcsim: unstable queue (lambda %.3f >= mu %.3f)", lambda, q.ServiceRate)
	}
	return time.Duration(1 / (q.ServiceRate - lambda) * float64(time.Second)), nil
}

// maxThroughputAtResponseTime returns the largest arrival rate whose mean
// response time does not exceed target.
func (q MM1) maxThroughputAtResponseTime(target time.Duration) float64 {
	lambda := q.ServiceRate - 1/target.Seconds()
	if lambda < 0 {
		return 0
	}
	return lambda
}

// ThroughputImprovement computes Fig 17's metric: a baseline server runs
// at load rho (its arrival rate is rho * muBase), establishing a response
// -time target; the accelerated server (service latency accLat) serves as
// much load as fits under the same target. The return value is the ratio
// of the two arrival rates.
func ThroughputImprovement(baseLat, accLat time.Duration, rho float64) (float64, error) {
	if rho <= 0 || rho >= 1 {
		return 0, fmt.Errorf("dcsim: load must be in (0,1), got %v", rho)
	}
	base := NewMM1(baseLat)
	lambdaBase := rho * base.ServiceRate
	target, err := base.ResponseTime(lambdaBase)
	if err != nil {
		return 0, err
	}
	acc := NewMM1(accLat)
	lambdaAcc := acc.maxThroughputAtResponseTime(target)
	if lambdaBase == 0 {
		return math.Inf(1), nil
	}
	return lambdaAcc / lambdaBase, nil
}

// SaturationThroughputImprovement is Fig 16's metric — the 100%-load
// lower bound, which reduces to the plain service-rate ratio.
func SaturationThroughputImprovement(baseLat, accLat time.Duration) float64 {
	return baseLat.Seconds() / accLat.Seconds()
}

// ResponseTimePercentile returns the p-quantile (0 < p < 1) of the M/M/1
// response-time distribution at arrival rate lambda. Sojourn time in an
// M/M/1 queue is exponential with rate (mu - lambda), so the tail is
// closed-form: t_p = -ln(1-p) / (mu - lambda). Datacenter SLOs bind at
// p95/p99, not the mean — this is what a capacity planner actually needs.
func (q MM1) ResponseTimePercentile(lambda, p float64) (time.Duration, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("dcsim: percentile %v outside (0,1)", p)
	}
	if _, err := q.ResponseTime(lambda); err != nil {
		return 0, err
	}
	t := -math.Log(1-p) / (q.ServiceRate - lambda)
	return time.Duration(t * float64(time.Second)), nil
}
