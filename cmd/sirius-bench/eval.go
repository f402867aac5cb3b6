package main

import (
	"context"
	"fmt"
	"strings"

	"sirius/internal/asr"
	"sirius/internal/kb"
	"sirius/internal/sirius"
	"sirius/internal/vision"
)

// endToEndEval is the functional-accuracy scorecard of the whole
// pipeline over the 42-query input set: the reproduction's counterpart
// to "does the system actually work", which the paper demonstrates but
// does not tabulate.
type endToEndEval struct {
	// Voice commands: ASR + QC + action parsing.
	VCCorrect, VCTotal int
	// Text QA (isolates QA from ASR errors).
	TextQACorrect, TextQATotal int
	// Full voice QA (ASR errors propagate).
	VoiceQACorrect, VoiceQATotal int
	// Image matching + QA (text queries with photos).
	VIQCorrect, VIQTotal int
	// ASR word error rate over all voice queries.
	MeanWER float64
}

// runEndToEndEval executes every query class and scores the results.
// seedBase offsets the synthesis jitter so evaluation uses held-out
// renditions.
func (h *harness) runEndToEndEval(seedBase int64) (endToEndEval, error) {
	var ev endToEndEval
	var werSum float64
	var werN int
	lex := h.pipeline.Lexicon()

	for i, q := range kb.VoiceCommands {
		samples, err := asr.SynthesizeText(lex, q.Text, seedBase+int64(i))
		if err != nil {
			return ev, err
		}
		resp, err := h.pipeline.Process(context.Background(), sirius.Request{Samples: samples})
		if err != nil {
			return ev, err
		}
		ev.VCTotal++
		if resp.Kind == sirius.KindAction && resp.Action == q.Want {
			ev.VCCorrect++
		}
		werSum += asr.WER(q.Text, resp.Transcript)
		werN++
	}
	for i, q := range kb.VoiceQueries {
		resp, _ := h.pipeline.Process(context.Background(), sirius.Request{Text: q.Text})
		ev.TextQATotal++
		if resp.Answer == q.Want {
			ev.TextQACorrect++
		}
		samples, err := asr.SynthesizeText(lex, q.Text, seedBase+100+int64(i))
		if err != nil {
			return ev, err
		}
		vresp, err := h.pipeline.Process(context.Background(), sirius.Request{Samples: samples})
		if err != nil {
			return ev, err
		}
		ev.VoiceQATotal++
		if vresp.Answer == q.Want {
			ev.VoiceQACorrect++
		}
		werSum += asr.WER(q.Text, vresp.Transcript)
		werN++
	}
	for i, q := range kb.VoiceImageQueries {
		scene := vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
		photo := vision.Warp(scene, vision.DefaultWarp(seedBase+200+int64(i)))
		resp, _ := h.pipeline.Process(context.Background(), sirius.Request{Text: q.Text, Image: photo})
		ev.VIQTotal++
		if resp.MatchedImage == q.ImageID && resp.Answer == q.Want {
			ev.VIQCorrect++
		}
	}
	if werN > 0 {
		ev.MeanWER = werSum / float64(werN)
	}
	return ev, nil
}

// String renders the scorecard.
func (ev endToEndEval) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "End-to-end functional evaluation (42-query input set, held-out synthesis seeds)\n")
	fmt.Fprintf(&b, "  voice commands (ASR+QC+action) : %2d/%2d\n", ev.VCCorrect, ev.VCTotal)
	fmt.Fprintf(&b, "  text QA                        : %2d/%2d\n", ev.TextQACorrect, ev.TextQATotal)
	fmt.Fprintf(&b, "  voice QA (ASR errors included) : %2d/%2d\n", ev.VoiceQACorrect, ev.VoiceQATotal)
	fmt.Fprintf(&b, "  VIQ (image match + QA)         : %2d/%2d\n", ev.VIQCorrect, ev.VIQTotal)
	fmt.Fprintf(&b, "  mean ASR word error rate       : %.2f\n", ev.MeanWER)
	return b.String()
}

// evalSeed is the scorecard's held-out synthesis seed base.
const evalSeed = 12000

// eval scores the held-out renditions.
func eval(e env) (string, error) {
	ev, err := e.h.runEndToEndEval(evalSeed)
	return ev.String(), err
}
