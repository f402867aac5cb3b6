package asr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// TestInt8TranscriptParity is the transcript-parity guardrail for the
// quantized scoring path: on the seed utterances, the DNN must produce
// the SAME transcript at int8 as at fp64, on the one-pass search it serves
// with or without a trigram, and at both precisions EnableRescoring must
// leave its results bit-identical to a recognizer never given one.
// Absolute scores may drift by the quantization error; the decoded word
// sequence may not. The GMM bank has no int8 kernel, so on that engine an
// int8 request must be refused as unsupported rather than scored, on the
// 1-best and on the two-pass search. Each fp64 recognition runs twice, the
// second on search scratch the int8 run handed back (or the refusal left
// untouched), and must repeat its score to the bit.
func TestInt8TranscriptParity(t *testing.T) {
	_, lex, _ := setup(t)
	utterances := []string{"go", "stop", "call time", "stop news", "weather"}
	plainDNN := newTestRecognizer(t, EngineDNN, false)
	for _, engine := range []Engine{EngineGMM, EngineDNN} {
		for _, rescore := range []bool{false, true} {
			rec := newTestRecognizer(t, engine, rescore)
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
				if engine == EngineGMM {
					if !errors.Is(err, errors.ErrUnsupported) {
						t.Fatalf("GMM int8 %q: err %v, want errors.ErrUnsupported", text, err)
					}
				} else if err != nil {
					t.Fatalf("%v int8 %q: %v", engine, text, err)
				} else if fp.Text != q.Text {
					t.Fatalf("%v rescore=%v %q: transcript diverged under int8: fp64=%q int8=%q", engine, rescore, text, fp.Text, q.Text)
				} else if rescore {
					for prec, got := range map[Precision]Result{PrecisionFP64: fp, PrecisionInt8: q} {
						want, err := plainDNN.RecognizePrecision(context.Background(), samples, prec)
						if err != nil {
							t.Fatal(err)
						}
						requireSameResult(t, fmt.Sprintf("DNN %s %q: rescoring recognizer vs never rescored", prec, text), want, got)
					}
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

// TestInt8BeforeQuantizeFails pins the failure mode for a precision
// the DNN has no kernel for: requesting it is an error, not silent fp64.
// (A DNN recognizer builds its int8 image in NewRecognizer, so int8 is
// never requested before it exists.)
func TestInt8BeforeQuantizeFails(t *testing.T) {
	rec := newTestRecognizer(t, EngineDNN, false)
	_, lex, _ := setup(t)
	samples, err := SynthesizeText(lex, "go", 7)
	if err != nil {
		t.Fatal(err)
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
