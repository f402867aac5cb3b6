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
	// StableFrames is the partial-stability horizon K: a new committed-word
	// prefix becomes a partial hypothesis once the best path has kept it
	// unchanged for K feature frames (K*10 ms of audio). Smaller K surfaces
	// partials sooner but flickers more. 0 means DefaultStableFrames.
	StableFrames int
	// VAD, when set, gates the stream on a causal energy endpointer:
	// leading silence is skipped (minus an onset margin) so the decoder
	// does not search hundreds of silence frames before speech starts.
	// The server leaves it nil for bit-parity with the one-shot path,
	// which does not trim either.
	VAD *audio.VADConfig
	// Precision selects the acoustic scoring format for the whole
	// session ("" = fp64); int8 requires Models.Quantize.
	Precision Precision
}

// DefaultStableFrames is 300 ms of unchanged best-path prefix.
const DefaultStableFrames = 30

// Partial is an intermediate hypothesis emitted mid-stream.
type Partial struct {
	Text      string
	Frames    int // feature frames consumed when the partial stabilized
	StableFor int // frames the prefix had been unchanged
}

// Stream is a stateful incremental recognition session: audio chunks go
// in via Push (which may surface a stabilized partial hypothesis),
// Finish ends the utterance and returns the final Result. The final is
// bit-identical to Recognize on the concatenated samples — feature
// extraction, acoustic scoring (including the cross-request batch
// detour), Viterbi search, and rescoring are the same code on both
// paths; only the chunk boundaries differ, and every stage is
// chunk-invariant.
//
// A Stream is not safe for concurrent use and, like Recognize, each
// concurrent session should run on its own Recognizer sharing the
// read-only Models.
type Stream struct {
	r   *Recognizer
	cfg StreamConfig
	ctx context.Context

	vad  *audio.StreamVAD
	hold []float64 // pre-onset tail retained while the VAD gate is closed

	ext *audio.StreamExtractor
	sc  *scorer
	// Exactly one of sess/nbest is set: the n-best session when trigram
	// rescoring is enabled (so the streamed final goes through the same
	// two-pass rescoring as the one-shot path), the 1-best otherwise.
	sess  *hmm.Session
	nbest *hmm.NBestSession

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
	if cfg.StableFrames <= 0 {
		cfg.StableFrames = DefaultStableFrames
	}
	sc, err := r.newScorer(cfg.Precision)
	if err != nil {
		return nil, err
	}
	dec, err := hmm.NewDecoder(r.graph, sc, r.cfg)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		r:   r,
		cfg: cfg,
		ctx: ctx,
		ext: r.models.FrontEnd.NewStreamExtractor(),
		sc:  sc,
	}
	if cfg.VAD != nil {
		s.vad = audio.NewStreamVAD(*cfg.VAD)
	}
	if r.rescoreTri != nil {
		s.nbest = dec.NewNBestSession(r.rescoreN)
	} else {
		s.sess = dec.NewSession()
	}
	return s, nil
}

// Frames returns the number of feature frames consumed so far.
func (s *Stream) Frames() int { return s.ext.Frames() }

// Push consumes one chunk of 16 kHz samples, advancing feature
// extraction and the Viterbi beam. It returns a non-nil Partial when
// the committed-word prefix of the best path has newly stabilized
// (unchanged for StableFrames frames) since the last emission, nil
// otherwise. A ctx error aborts the chunk and poisons the stream.
func (s *Stream) Push(samples []float64) (*Partial, error) {
	if s.finished {
		return nil, fmt.Errorf("asr: push on finished stream")
	}
	s.samples += len(samples)
	if s.vad != nil && !s.vad.Started() {
		if !s.vad.Push(samples) {
			// Gate still closed: remember just enough tail to cover the
			// onset margin, skip the rest of the silence.
			s.hold = append(s.hold, samples...)
			if m := s.vad.Margin(); len(s.hold) > m {
				s.hold = s.hold[len(s.hold)-m:]
			}
			return nil, nil
		}
		samples = append(s.hold, samples...)
		s.hold = nil
	}
	feStart := time.Now()
	var feats [][]float64
	telemetry.WithKernel(s.ctx, "asr", "mfcc", func(context.Context) {
		feats = s.ext.Push(samples)
	})
	s.feElapsed += time.Since(feStart)
	if err := s.advance(feats); err != nil {
		return nil, err
	}
	return s.checkStability(), nil
}

// advance runs one chunk of feature frames through the live search.
func (s *Stream) advance(feats [][]float64) error {
	if len(feats) == 0 {
		return s.ctx.Err()
	}
	start := time.Now()
	var err error
	telemetry.WithLabels(s.ctx, "asr", "viterbi", func(ctx context.Context) {
		if s.nbest != nil {
			err = s.nbest.Advance(ctx, feats)
		} else {
			err = s.sess.Advance(ctx, feats)
		}
	})
	s.searchElapsed += time.Since(start)
	return err
}

// checkStability applies the partial-stability heuristic to the current
// best path's committed words.
func (s *Stream) checkStability() *Partial {
	var words []string
	if s.nbest != nil {
		words = s.nbest.BestWords()
	} else {
		words = s.sess.BestWords()
	}
	text := strings.Join(filterSilence(words), " ")
	frames := s.decodedFrames()
	if text != s.trackedText {
		s.trackedText = text
		s.trackedSince = frames
		return nil
	}
	stable := frames - s.trackedSince
	if text == "" || text == s.emittedText || stable < s.cfg.StableFrames {
		return nil
	}
	s.emittedText = text
	return &Partial{Text: text, Frames: frames, StableFor: stable}
}

func (s *Stream) decodedFrames() int {
	if s.nbest != nil {
		return s.nbest.Frames()
	}
	return s.sess.Frames()
}

// Finish ends the utterance: the extractor's delta-lookahead tail is
// flushed through the search, and the winning hypothesis is selected —
// and rescored, when enabled — exactly as Recognize would. The stream
// must not be pushed to afterwards.
func (s *Stream) Finish() (Result, error) {
	if s.finished {
		return Result{}, fmt.Errorf("asr: stream already finished")
	}
	s.finished = true
	feStart := time.Now()
	var feats [][]float64
	telemetry.WithKernel(s.ctx, "asr", "mfcc", func(context.Context) {
		feats = s.ext.Flush()
	})
	s.feElapsed += time.Since(feStart)
	if err := s.advance(feats); err != nil {
		return Result{}, err
	}
	tm := Timings{
		FeatureExtraction: s.feElapsed,
		Frames:            s.ext.Frames(),
	}
	if tm.Frames == 0 {
		return Result{Timings: tm}, fmt.Errorf("asr: audio too short (%d samples)", s.samples)
	}
	finishStart := time.Now()
	var res hmm.Result
	if s.nbest != nil {
		hyps := s.nbest.Finish()
		if len(hyps) == 0 {
			return Result{Timings: tm}, fmt.Errorf("asr: no hypotheses")
		}
		res = hyps[s.r.rescoreTri.Rescore(hyps, s.r.rescoreWeight)]
	} else {
		res = s.sess.Result()
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
