package asr

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sirius/internal/audio"
	"sirius/internal/hmm"
	"sirius/internal/telemetry"
)

// StreamConfig tunes the incremental recognizer.
type StreamConfig struct {
	// Precision selects the acoustic scoring format for the whole
	// session ("" = fp64); int8 requires the DNN engine.
	Precision Precision
}

// stableFrames is the partial-stability horizon: a new committed-word
// prefix becomes a partial hypothesis once the best path has kept it
// unchanged for this many feature frames, 300 ms of audio. A shorter
// horizon would surface partials sooner and flicker more.
const stableFrames = 30

// Partial is an intermediate hypothesis emitted mid-stream.
type Partial struct {
	Text      string
	Frames    int // feature frames consumed when the partial stabilized
	StableFor int // frames the prefix had been unchanged
}

// Stream is a stateful incremental recognition session: audio chunks go
// in via Push (which may surface a stabilized partial hypothesis),
// Finish ends the utterance and returns the final Result. It is the one
// recognition path: RecognizePrecision is a stream finished with all its
// audio in one block, so feature extraction, acoustic scoring (including
// the cross-request batch detour) and Viterbi search are the same code
// either way, and since every stage is chunk-invariant the streamed
// final is bit-identical to the one-shot transcript.
//
// A Stream is not safe for concurrent use. Any number of streams may run
// at once on one Recognizer: each keeps its own extractor, scorer and
// search session, and they share only read-only state.
type Stream struct {
	r   *Recognizer
	ctx context.Context

	ext  *audio.StreamExtractor
	sc   *scorer
	sess *hmm.Session

	samples       int // raw samples consumed (for the too-short error)
	feElapsed     time.Duration
	searchElapsed time.Duration

	trackedText  string // committed prefix currently being tracked
	trackedSince int    // frame count when trackedText first appeared
	emittedText  string // last partial handed to the caller
	finished     bool
}

// NewStream starts an incremental recognition session under ctx: the
// context's cancellation reaches the batch scheduler and the per-chunk
// decode loops, so an abandoned stream stops burning cores mid-chunk.
func (r *Recognizer) NewStream(ctx context.Context, cfg StreamConfig) (*Stream, error) {
	sc, err := r.newScorer(cfg.Precision)
	if err != nil {
		return nil, err
	}
	dec, err := hmm.NewDecoder(r.graph, sc, r.cfg)
	if err != nil {
		return nil, err
	}
	return &Stream{
		r:    r,
		ctx:  ctx,
		ext:  r.models.FrontEnd.NewStreamExtractor(),
		sc:   sc,
		sess: dec.NewSession(),
	}, nil
}

// Push consumes one chunk of 16 kHz samples, advancing feature
// extraction and the Viterbi beam. It returns a non-nil Partial when
// the committed-word prefix of the best path has newly stabilized
// (unchanged for stableFrames frames) since the last emission, nil
// otherwise. A ctx error aborts the chunk and poisons the stream.
func (s *Stream) Push(samples []float64) (*Partial, error) {
	if s.finished {
		return nil, fmt.Errorf("asr: push on finished stream")
	}
	if err := s.step(samples, false); err != nil {
		return nil, err
	}
	return s.checkStability(), nil
}

// step runs samples through feature extraction and the frames that
// became final through the live search as one scoring block. At the end
// of the utterance the extractor's delta-lookahead tail joins that block.
func (s *Stream) step(samples []float64, last bool) error {
	s.samples += len(samples)
	var feats [][]float64
	s.feElapsed += telemetry.WithKernel(s.ctx, "asr", "mfcc", func(context.Context) {
		feats = s.ext.Push(samples)
		if last {
			feats = append(feats, s.ext.Flush()...)
		}
	})
	start := time.Now()
	var err error
	telemetry.WithLabels(s.ctx, "asr", "viterbi", func(ctx context.Context) {
		err = s.sess.Advance(ctx, feats)
	})
	s.searchElapsed += time.Since(start)
	return err
}

// checkStability applies the partial-stability heuristic to the current
// best path's committed words.
func (s *Stream) checkStability() *Partial {
	text := strings.Join(filterSilence(s.sess.BestWords()), " ")
	frames := s.sess.Frames()
	if text != s.trackedText {
		s.trackedText = text
		s.trackedSince = frames
		return nil
	}
	stable := frames - s.trackedSince
	if text == "" || text == s.emittedText || stable < stableFrames {
		return nil
	}
	s.emittedText = text
	return &Partial{Text: text, Frames: frames, StableFor: stable}
}

// Finish ends the utterance: the extractor's delta-lookahead tail is
// flushed through the search, and its hypothesis is the result. The
// stream must not be pushed to afterwards.
func (s *Stream) Finish() (Result, error) { return s.finish(nil) }

// finish ends the utterance with its last samples: they and the
// extractor's tail go through the search as one block, so a one-shot
// recognition makes exactly one Score call.
func (s *Stream) finish(samples []float64) (Result, error) {
	if s.finished {
		return Result{}, fmt.Errorf("asr: stream already finished")
	}
	s.finished = true
	if err := s.step(samples, true); err != nil {
		return Result{}, err
	}
	tm := Timings{
		FeatureExtraction: s.feElapsed,
		Frames:            s.ext.Frames(),
	}
	finishStart := time.Now()
	res, ok := s.sess.Finish()
	if tm.Frames == 0 {
		return Result{Timings: tm}, fmt.Errorf("asr: audio too short (%d samples)", s.samples)
	}
	if !ok {
		return Result{Timings: tm}, fmt.Errorf("asr: no hypotheses")
	}
	s.sc.split(&tm, s.searchElapsed+time.Since(finishStart))
	return Result{Text: strings.Join(filterSilence(res.Words), " "), Score: res.Score, Timings: tm}, nil
}

// filterSilence drops the optional-silence word from a hypothesis.
func filterSilence(words []string) []string {
	out := words[:0:0]
	for _, w := range words {
		if w != hmm.SilenceWord {
			out = append(out, w)
		}
	}
	return out
}
