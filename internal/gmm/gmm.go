// Package gmm implements diagonal-covariance Gaussian mixture models: the
// acoustic scorer behind Sirius' HMM/GMM speech recognition path and the
// first Sirius Suite kernel (paper §2.3.1, §4.4.1).
//
// The scoring data layout follows the Sphinx convention the paper
// describes for its FPGA port: per mixture component a means vector, a
// precomputed precision ("precs") vector, a log mixture weight, and a
// per-component log normalization factor. Scoring a feature vector is
// then, per component, factor + weight - 1/2 * sum_d precs[d] *
// (x[d]-mean[d])^2, log-added across components — three nested loops over
// (state, component, dimension), which is exactly the kernel the paper
// accelerates.
package gmm

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"sirius/internal/mat"
)

const log2Pi = 1.8378770664093453

// Model is a single diagonal-covariance Gaussian mixture.
type Model struct {
	Dim        int         `json:"dim"`
	Means      [][]float64 `json:"means"`   // K x Dim
	Precs      [][]float64 `json:"precs"`   // K x Dim, 1/variance
	LogWeights []float64   `json:"weights"` // K, log mixture weights
	Factors    []float64   `json:"factors"` // K, log Gaussian normalizers
}

// K returns the number of mixture components.
func (m *Model) K() int { return len(m.Means) }

// NewModel allocates a K-component model of the given dimension with unit
// variances, uniform weights and zero means.
func NewModel(k, dim int) *Model {
	m := &Model{Dim: dim}
	m.Means = make([][]float64, k)
	m.Precs = make([][]float64, k)
	m.LogWeights = make([]float64, k)
	m.Factors = make([]float64, k)
	for i := 0; i < k; i++ {
		m.Means[i] = make([]float64, dim)
		m.Precs[i] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			m.Precs[i][d] = 1
		}
		m.LogWeights[i] = -math.Log(float64(k))
	}
	m.RecomputeFactors()
	return m
}

// RecomputeFactors refreshes the per-component log normalizers from the
// precision vectors. Call after mutating Precs.
func (m *Model) RecomputeFactors() {
	for i := range m.Precs {
		var logDetPrec float64
		for _, p := range m.Precs[i] {
			logDetPrec += math.Log(p)
		}
		m.Factors[i] = 0.5 * (logDetPrec - float64(m.Dim)*log2Pi)
	}
}

// ComponentLogLikelihood returns the log density of x under component k
// including the mixture weight.
func (m *Model) ComponentLogLikelihood(k int, x []float64) float64 {
	mean, prec := m.Means[k], m.Precs[k]
	var q float64
	for d, xv := range x {
		diff := xv - mean[d]
		q += prec[d] * diff * diff
	}
	return m.LogWeights[k] + m.Factors[k] - 0.5*q
}

// LogLikelihood scores x against the full mixture.
func (m *Model) LogLikelihood(x []float64) float64 {
	score := math.Inf(-1)
	for k := range m.Means {
		score = mat.LogAdd(score, m.ComponentLogLikelihood(k, x))
	}
	return score
}

// Train fits the model to data with expectation-maximization, initializing
// means by randomly drawn samples. It returns the per-iteration average
// log-likelihoods (which tests assert are non-decreasing).
func (m *Model) Train(data [][]float64, iters int, rng *rand.Rand) []float64 {
	if len(data) == 0 {
		return nil
	}
	k := m.K()
	kmeansInit(m, data, rng)
	// Initialize shared variances from the global data spread, and derive a
	// per-dimension variance floor from it. A relative floor keeps mixtures
	// trained on few samples from collapsing into spikes that score unseen
	// renditions of the same phone as impossibly unlikely.
	globalVar := columnVariance(data, m.Dim)
	floor := make([]float64, m.Dim)
	for d := 0; d < m.Dim; d++ {
		floor[d] = math.Max(0.5*globalVar[d], 1e-6)
	}
	for i := 0; i < k; i++ {
		for d := 0; d < m.Dim; d++ {
			m.Precs[i][d] = 1 / math.Max(globalVar[d], floor[d])
		}
	}
	m.RecomputeFactors()

	lls := make([]float64, 0, iters)
	resp := make([]float64, k)
	for it := 0; it < iters; it++ {
		sumResp := make([]float64, k)
		sumX := mat.NewDense(k, m.Dim)
		sumX2 := mat.NewDense(k, m.Dim)
		var total float64
		for _, x := range data {
			for j := 0; j < k; j++ {
				resp[j] = m.ComponentLogLikelihood(j, x)
			}
			norm := mat.LogSumExp(resp)
			total += norm
			for j := 0; j < k; j++ {
				r := math.Exp(resp[j] - norm)
				sumResp[j] += r
				rowX, rowX2 := sumX.Row(j), sumX2.Row(j)
				for d, xv := range x {
					rowX[d] += r * xv
					rowX2[d] += r * xv * xv
				}
			}
		}
		for j := 0; j < k; j++ {
			nj := sumResp[j]
			if nj < 1e-8 {
				// Dead component: re-seed on a random point.
				copy(m.Means[j], data[rng.Intn(len(data))])
				continue
			}
			m.LogWeights[j] = math.Log(nj / float64(len(data)))
			rowX, rowX2 := sumX.Row(j), sumX2.Row(j)
			for d := 0; d < m.Dim; d++ {
				mean := rowX[d] / nj
				m.Means[j][d] = mean
				variance := rowX2[d]/nj - mean*mean
				m.Precs[j][d] = 1 / math.Max(variance, floor[d])
			}
		}
		m.RecomputeFactors()
		lls = append(lls, total/float64(len(data)))
	}
	return lls
}

// kmeansInit seeds the mixture means with a few Lloyd iterations
// (random-point init, hard assignment), the standard Sphinx-style
// initialization that starts EM near a good basin.
func kmeansInit(m *Model, data [][]float64, rng *rand.Rand) {
	k := m.K()
	for i := 0; i < k; i++ {
		copy(m.Means[i], data[rng.Intn(len(data))])
	}
	assign := make([]int, len(data))
	for iter := 0; iter < 4; iter++ {
		// Assignment step.
		for n, x := range data {
			best, bestD := 0, math.Inf(1)
			for j := 0; j < k; j++ {
				var d float64
				for dd, xv := range x {
					diff := xv - m.Means[j][dd]
					d += diff * diff
				}
				if d < bestD {
					bestD, best = d, j
				}
			}
			assign[n] = best
		}
		// Update step.
		counts := make([]float64, k)
		sums := mat.NewDense(k, m.Dim)
		for n, x := range data {
			counts[assign[n]]++
			row := sums.Row(assign[n])
			for dd, xv := range x {
				row[dd] += xv
			}
		}
		for j := 0; j < k; j++ {
			if counts[j] == 0 {
				copy(m.Means[j], data[rng.Intn(len(data))])
				continue
			}
			row := sums.Row(j)
			for dd := range m.Means[j] {
				m.Means[j][dd] = row[dd] / counts[j]
			}
		}
	}
}

func columnVariance(data [][]float64, dim int) []float64 {
	mean := make([]float64, dim)
	for _, x := range data {
		for d, v := range x {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(data))
	}
	variance := make([]float64, dim)
	for _, x := range data {
		for d, v := range x {
			diff := v - mean[d]
			variance[d] += diff * diff
		}
	}
	for d := range variance {
		variance[d] /= float64(len(data))
	}
	return variance
}

// Save serializes the model as JSON.
func (m *Model) Save(w io.Writer) error { return json.NewEncoder(w).Encode(m) }

// Load reads a JSON model and validates its shape.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("gmm: decode: %w", err)
	}
	if len(m.Means) != len(m.Precs) || len(m.Means) != len(m.LogWeights) || len(m.Means) != len(m.Factors) {
		return nil, fmt.Errorf("gmm: inconsistent component counts")
	}
	for i := range m.Means {
		if len(m.Means[i]) != m.Dim || len(m.Precs[i]) != m.Dim {
			return nil, fmt.Errorf("gmm: component %d has wrong dimension", i)
		}
	}
	return &m, nil
}
