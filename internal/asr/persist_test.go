package asr

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sirius/internal/dnn"
	"sirius/internal/gmm"
	"sirius/internal/hmm"
)

// TestModelsSaveLoadRoundTrip: reloaded models recognize bit for bit as
// the trained ones on every engine at every precision it scores — the
// GMM at fp64, the DNN at fp64 and at int8.
func TestModelsSaveLoadRoundTrip(t *testing.T) {
	models, lex, lm := setup(t)
	var buf bytes.Buffer
	if err := models.save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := SynthesizeText(lex, "weather", 99)
	for _, c := range []struct {
		engine Engine
		prec   Precision
	}{{EngineGMM, PrecisionFP64}, {EngineDNN, PrecisionFP64}, {EngineDNN, PrecisionInt8}} {
		var res [2]Result
		for i, m := range []*Models{models, loaded} {
			rec, err := NewRecognizer(m, c.engine, lex, lm, hmm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if res[i], err = rec.RecognizePrecision(context.Background(), samples, c.prec); err != nil {
				t.Fatal(err)
			}
		}
		a, b := res[0], res[1]
		if a.Text != b.Text || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			t.Fatalf("%v %s: reloaded models decode differently: %q/%v vs %q/%v", c.engine, c.prec, a.Text, a.Score, b.Text, b.Score)
		}
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := loadModels(strings.NewReader("not gzip")); err == nil {
		t.Fatal("expected gzip error")
	}
}

// TestLoadModelsRejectsHostileBundles: a bundle whose shapes would panic
// later — in loadModels itself, at the first scoring or at the first
// extraction — is refused with an error instead.
func TestLoadModelsRejectsHostileBundles(t *testing.T) {
	models, _, _ := setup(t)
	var saved bytes.Buffer
	if err := models.save(&saved); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*modelBundle){
		"null GMM":             func(b *modelBundle) { b.GMMs[3] = nil },
		"precs shorter":        func(b *modelBundle) { b.GMMs[0].Precs[1] = b.GMMs[0].Precs[1][:5] },
		"fewer precs":          func(b *modelBundle) { b.GMMs[0].Precs = b.GMMs[0].Precs[:1] },
		"FFTSize 500":          func(b *modelBundle) { b.FrontEnd.FFTSize = 500 },
		"FrameShift 0":         func(b *modelBundle) { b.FrontEnd.FrameShift = 0 },
		"more cepstra":         func(b *modelBundle) { b.FrontEnd.NumCeps = b.FrontEnd.NumFilters + 1 },
		"GMM without a dim":    func(b *modelBundle) { b.GMMs[0].Dim = 0 },
		"GMM of no components": func(b *modelBundle) { *b.GMMs[0] = gmm.Model{Dim: b.GMMs[0].Dim} },
		"DNN of no layers":     func(b *modelBundle) { b.Net.Layers = []*dnn.Layer{} },
		"DNN without weights":  func(b *modelBundle) { b.Net.Layers[0].W = nil },
		"DNN bias shorter":     func(b *modelBundle) { b.Net.Layers[1].B = b.Net.Layers[1].B[:3] },
		"DNN input 7 wide":     func(b *modelBundle) { b.Net.Layers[0].In = 7 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			var b modelBundle
			gz, err := gzip.NewReader(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(gz).Decode(&b); err != nil {
				t.Fatal(err)
			}
			mutate(&b)
			var buf bytes.Buffer
			w := gzip.NewWriter(&buf)
			if err := json.NewEncoder(w).Encode(b); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err := loadModels(&buf); err == nil {
				t.Fatalf("loaded a bundle with %d senones", m.numSenones())
			}
		})
	}
	if _, err := loadModels(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatalf("the untouched bundle: %v", err)
	}
}

func TestLoadOrTrainCaches(t *testing.T) {
	_, lex, _ := setup(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "models.json.gz")
	m1, err := LoadOrTrain(path, lex.PhoneSet(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache not written: %v", err)
	}
	m2, err := LoadOrTrain(path, lex.PhoneSet(), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The cached copy must carry the same parameters.
	if len(m1.Phones) != len(m2.Phones) || m1.numSenones() != m2.numSenones() {
		t.Fatal("cached models differ in shape")
	}
	x := make([]float64, m1.FrontEnd.Config().Dim())
	if m1.Bank.Models[0].LogLikelihood(x) != m2.Bank.Models[0].LogLikelihood(x) {
		t.Fatal("cached GMM parameters differ")
	}
	// A corrupt cache is reported, not silently retrained.
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrTrain(path, lex.PhoneSet(), DefaultTrainConfig()); err == nil {
		t.Fatal("corrupt cache must error")
	}
	// Empty path trains without caching.
	if _, err := LoadOrTrain("", []string{"aa"}, DefaultTrainConfig()); err != nil {
		t.Fatal(err)
	}
}
