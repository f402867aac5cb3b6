package asr

import (
	"context"
	"math"
	"testing"

	"sirius/internal/hmm"
)

// TestInt8TranscriptParity is the transcript-parity guardrail for the
// quantized scoring path: on the seed utterances, both engines must
// produce the SAME transcript at int8 as at fp64, on the 1-best search
// and on the n-best search with trigram rescoring that the server runs.
// Absolute scores may drift by the quantization error (several log units
// a frame on the GMM bank); the decoded word sequence may not. Each fp64
// recognition runs twice, the second on search scratch the int8 run
// handed back, and must repeat its score to the bit.
func TestInt8TranscriptParity(t *testing.T) {
	models, lex, lm := setup(t)
	models.Quantize()
	if !models.Quantized() {
		t.Fatal("Models.Quantize did not build both images")
	}
	utterances := []string{"go", "stop", "call time", "stop news", "weather"}
	for _, engine := range []Engine{EngineGMM, EngineDNN} {
		for _, rescore := range []bool{false, true} {
			rec, err := NewRecognizer(models, engine, lex, lm, hmm.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if rescore {
				tri := hmm.NewTrigram(lex)
				tri.Observe("call time")
				tri.Observe("stop news")
				rec.EnableRescoring(tri, 3.0, 4)
			}
			for _, text := range utterances {
				samples, err := SynthesizeText(lex, text, 77)
				if err != nil {
					t.Fatal(err)
				}
				fp, err := rec.RecognizePrecision(context.Background(), samples, PrecisionFP64)
				if err != nil {
					t.Fatalf("%v fp64 %q: %v", engine, text, err)
				}
				q, err := rec.RecognizePrecision(context.Background(), samples, PrecisionInt8)
				if err != nil {
					t.Fatalf("%v int8 %q: %v", engine, text, err)
				}
				if fp.Text != q.Text {
					t.Fatalf("%v rescore=%v %q: transcript diverged under int8: fp64=%q int8=%q", engine, rescore, text, fp.Text, q.Text)
				}
				again, err := rec.RecognizePrecision(context.Background(), samples, PrecisionFP64)
				if err != nil {
					t.Fatal(err)
				}
				if again.Text != fp.Text || math.Float64bits(again.Score) != math.Float64bits(fp.Score) {
					t.Fatalf("%v rescore=%v %q: second run = (%q, %v), first = (%q, %v)", engine, rescore, text, again.Text, again.Score, fp.Text, fp.Score)
				}
			}
		}
	}
}

// TestInt8BeforeQuantizeFails pins the failure mode: requesting int8
// scoring against unquantized models is an error, not silent fp64.
func TestInt8BeforeQuantizeFails(t *testing.T) {
	models, lex, lm := setup(t)
	// setup caches models across tests; build a recognizer against a
	// shallow copy with the images stripped.
	bare := *models
	bare.bankI8 = nil
	rec, err := NewRecognizer(&bare, EngineGMM, lex, lm, hmm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := SynthesizeText(lex, "go", 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.RecognizePrecision(context.Background(), samples, PrecisionInt8); err == nil {
		t.Fatal("int8 recognition must fail before Models.Quantize")
	}
	if _, err := rec.RecognizePrecision(context.Background(), samples, Precision("fp16")); err == nil {
		t.Fatal("unknown precision must fail")
	}
}

func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{"": PrecisionFP64, "fp64": PrecisionFP64, "int8": PrecisionInt8} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrecision("float8"); err == nil {
		t.Fatal("expected error for unknown precision")
	}
}
