package asr

import (
	"testing"
	"testing/quick"

	"sirius/internal/audio"
	"sirius/internal/hmm"
)

func TestWERKnownCases(t *testing.T) {
	cases := []struct {
		ref, hyp string
		want     float64
	}{
		{"the cat sat", "the cat sat", 0},
		{"the cat sat", "the cat", 1.0 / 3},          // one deletion
		{"the cat sat", "the cat sat down", 1.0 / 3}, // one insertion
		{"the cat sat", "the dog sat", 1.0 / 3},      // one substitution
		{"the cat sat", "", 1},
		{"", "", 0},
		{"", "word", 1},
		{"a b c d", "d c b a", 1}, // full scramble: 4 ops on this alignment... (3 subs + leave 1)
	}
	for _, c := range cases {
		got := WER(c.ref, c.hyp)
		if c.ref == "a b c d" {
			// Exact value depends on alignment; assert it is high.
			if got < 0.74 {
				t.Errorf("WER(%q, %q) = %v, want >= 0.75", c.ref, c.hyp, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("WER(%q, %q) = %v, want %v", c.ref, c.hyp, got, c.want)
		}
	}
}

func TestWERCaseInsensitive(t *testing.T) {
	if WER("The Cat", "the cat") != 0 {
		t.Fatal("WER must fold case")
	}
}

func TestWERProperties(t *testing.T) {
	// Identity gives 0, and WER is non-negative.
	f := func(a, b string) bool {
		return WER(a, a) == 0 && WER(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateOnVocabulary(t *testing.T) {
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One held-out jitter seed per utterance.
	exact, totalWER := 0, 0.0
	for i, text := range testVocab {
		samples, err := SynthesizeText(lex, text, 20000+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		out, err := rec.Recognize(samples)
		if err != nil {
			t.Fatal(err)
		}
		w := WER(text, out.Text)
		totalWER += w
		if w == 0 {
			exact++
		}
	}
	if mean := totalWER / float64(len(testVocab)); mean > 0.5 {
		t.Fatalf("mean WER %.2f too high on single-word vocabulary", mean)
	}
	if exact < len(testVocab)/2 {
		t.Fatalf("exact matches: %d/%d", exact, len(testVocab))
	}
}

func TestNoiseRobustness(t *testing.T) {
	// Recognition accuracy degrades gracefully with noise: clean and
	// 20 dB SNR inputs stay usable; 0 dB may collapse (and that is fine —
	// the assertion is only on the clean/20 dB band).
	models, lex, lm := setup(t)
	rec, err := NewRecognizer(models, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	score := func(snrDB float64) int {
		correct := 0
		for i, w := range testVocab {
			samples, err := SynthesizeText(lex, w, int64(3000+i))
			if err != nil {
				t.Fatal(err)
			}
			if snrDB < 100 {
				samples = audio.AddNoise(samples, snrDB, int64(i))
			}
			res, err := rec.Recognize(samples)
			if err != nil {
				t.Fatal(err)
			}
			if res.Text == w {
				correct++
			}
		}
		return correct
	}
	clean := score(1000) // effectively no noise
	mild := score(40)
	noisy := score(20)
	t.Logf("accuracy: clean %d/%d, 40dB %d/%d, 20dB %d/%d",
		clean, len(testVocab), mild, len(testVocab), noisy, len(testVocab))
	if clean < len(testVocab)*2/3 {
		t.Fatalf("clean accuracy %d too low", clean)
	}
	// Multi-condition training (TrainModels adds 25-60 dB noise to every
	// training utterance) keeps moderate noise levels usable.
	if mild < clean-1 {
		t.Fatalf("40dB accuracy %d collapsed vs clean %d", mild, clean)
	}
	if noisy < clean-2 {
		t.Fatalf("20dB accuracy %d collapsed vs clean %d", noisy, clean)
	}
}
