package asr

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sirius/internal/audio"
	"sirius/internal/dnn"
	"sirius/internal/gmm"
	"sirius/internal/hmm"
)

// modelBundle is the on-disk form of Models: the trained parameters plus
// the front-end configuration they were trained against.
type modelBundle struct {
	Version   int                  `json:"version"`
	Phones    []string             `json:"phones"`
	FrontEnd  audio.FrontEndConfig `json:"frontend"`
	GMMs      []*gmm.Model         `json:"gmms"`
	Net       *dnn.Network         `json:"net"`
	LogPriors []float64            `json:"priors"`
}

const bundleVersion = 1

// Save serializes the models as gzipped JSON. Training takes seconds but
// servers restart often; the sirius-server -models flag uses this cache.
func (m *Models) Save(w io.Writer) error {
	gz := gzip.NewWriter(w)
	b := modelBundle{
		Version:   bundleVersion,
		Phones:    m.Phones,
		FrontEnd:  m.FrontEnd.Config(),
		GMMs:      m.Bank.Models,
		Net:       m.Net,
		LogPriors: m.LogPriors,
	}
	if err := json.NewEncoder(gz).Encode(b); err != nil {
		return fmt.Errorf("asr: encode models: %w", err)
	}
	return gz.Close()
}

// LoadModels reads a bundle written by Save and validates its shape.
func LoadModels(r io.Reader) (*Models, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("asr: models not gzipped: %w", err)
	}
	defer gz.Close()
	var b modelBundle
	if err := json.NewDecoder(gz).Decode(&b); err != nil {
		return nil, fmt.Errorf("asr: decode models: %w", err)
	}
	if b.Version != bundleVersion {
		return nil, fmt.Errorf("asr: bundle version %d, want %d", b.Version, bundleVersion)
	}
	nSen := len(b.Phones) * hmm.StatesPerPhone
	if len(b.GMMs) != nSen {
		return nil, fmt.Errorf("asr: %d GMMs for %d senones", len(b.GMMs), nSen)
	}
	if b.Net == nil || b.Net.OutputDim() != nSen {
		return nil, fmt.Errorf("asr: DNN output does not match senone count")
	}
	if len(b.LogPriors) != nSen {
		return nil, fmt.Errorf("asr: %d priors for %d senones", len(b.LogPriors), nSen)
	}
	// Shapes are checked before any table or slab is built from them, so
	// a hostile bundle is an error here, not a panic at the first query.
	if err := b.FrontEnd.Validate(); err != nil {
		return nil, fmt.Errorf("asr: bundle front end: %w", err)
	}
	dim := b.FrontEnd.Dim()
	for i, g := range b.GMMs {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("asr: GMM %d: %w", i, err)
		}
		if g.Dim != dim {
			return nil, fmt.Errorf("asr: GMM %d has dim %d, front-end gives %d", i, g.Dim, dim)
		}
	}
	return &Models{
		Phones:    b.Phones,
		FrontEnd:  audio.NewFrontEnd(b.FrontEnd),
		Bank:      gmm.NewBank(b.GMMs),
		Net:       b.Net,
		LogPriors: b.LogPriors,
	}, nil
}

// LoadOrTrain loads cached models from path when it exists, otherwise
// trains fresh models (for the given phone set) and writes the cache.
func LoadOrTrain(path string, phones []string, cfg TrainConfig) (*Models, error) {
	if path != "" {
		if f, err := os.Open(path); err == nil {
			defer f.Close()
			m, err := LoadModels(f)
			if err != nil {
				return nil, fmt.Errorf("asr: cached models at %s: %w", path, err)
			}
			return m, nil
		}
	}
	m, err := TrainModels(phones, cfg)
	if err != nil {
		return nil, err
	}
	if path != "" {
		// Write-to-temp + rename so a reader never sees a half-written
		// bundle: replicas spawned concurrently (the autoscaler boots
		// several against one shared cache path) either load a complete
		// file or miss and train — never crash on a torn one.
		tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
		if err != nil {
			return nil, fmt.Errorf("asr: create model cache: %w", err)
		}
		if err := m.Save(tmp); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("asr: write model cache: %w", err)
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return nil, fmt.Errorf("asr: install model cache: %w", err)
		}
	}
	return m, nil
}
