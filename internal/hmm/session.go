package hmm

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Session is the Viterbi search: frame-synchronous token passing with one
// token per state under the beam, advanced chunk by chunk as audio
// arrives instead of requiring the whole utterance up front, whose Finish
// returns the best word sequence. Between Advance calls the tokens stay
// live, so BestWords can report the committed-word prefix of the current
// best path (the raw material for streaming partial hypotheses). A whole
// utterance is one session advanced once. The tokens come from a pool on
// the graph and go back at Finish, or as soon as an Advance fails. A
// session is not safe for concurrent use.
type Session struct {
	d         *Decoder
	frames    int      // feature frames consumed so far
	sc        *scratch // nil once finished or failed
	best      float64  // best token score after the last frame
	bestState int32    // the lowest state holding it; -1 when no token is live
}

// NewSession starts a streaming search.
func (d *Decoder) NewSession() *Session {
	return &Session{d: d, sc: d.graph.scratch(), best: math.Inf(-1), bestState: -1}
}

// Frames returns the number of feature frames consumed so far.
func (s *Session) Frames() int { return s.frames }

// errSessionOver is what a session that has finished or failed answers
// to a further Advance.
var errSessionOver = errors.New("hmm: advance on a finished or failed search session")

// Advance scores one chunk of feature frames in a single Scorer call (one
// GEMM per chunk, the granularity the batch scheduler coalesces across
// requests) and relaxes each row in turn, read where the scorer left it.
// ctx is checked on entry, even for an empty chunk, right after scoring,
// which a canceled request cuts short, and then every ctxCheckInterval
// frames, so an expired deadline releases the core mid-chunk. A scorer
// that comes back with anything but one row per frame while ctx is live
// is an error. An error leaves the tokens half relaxed, so it ends the
// session: the scratch goes back to the pool, a later Advance fails,
// BestWords is nil and Finish has no hypothesis.
func (s *Session) Advance(ctx context.Context, frames [][]float64) error {
	if s.sc == nil {
		return errSessionOver
	}
	if err := s.advance(ctx, frames); err != nil {
		s.release()
		return err
	}
	return nil
}

// advance is Advance on a live session.
func (s *Session) advance(ctx context.Context, frames [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(frames) == 0 {
		return nil
	}
	rows := s.d.scorer.Score(ctx, frames)
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(rows) != len(frames) {
		return fmt.Errorf("hmm: scorer returned %d rows for %d frames", len(rows), len(frames))
	}
	g := s.d.graph
	sc := s.sc
	for _, emit := range rows {
		if s.frames > 0 && s.frames%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if s.frames > 0 {
			s.step(emit)
		} else {
			// Frame 0: enter each word start.
			for st := range sc.cur {
				sc.cur[st] = dead
			}
			for wi, st := range g.wordStart {
				tok := token{score: g.startProbs[wi] + emit[g.senones[st]]}
				sc.cur[st], sc.last[wi] = tok, st
				if tok.score > s.best {
					s.best, s.bestState = tok.score, st
				}
			}
		}
		s.frames++
	}
	return nil
}

// BestWords returns the committed words of the current best token — the
// partial hypothesis. The word being decoded right now is not included
// (it has not crossed a word boundary yet), which is what makes the
// prefix monotone enough for stability detection. Returns nil before any
// frame has been consumed.
func (s *Session) BestWords() []string {
	if s.bestState < 0 || s.sc == nil {
		return nil
	}
	return historyWords(s.d.graph, s.sc.cur[s.bestState].hist)
}

// Finish ends the search and returns its hypothesis (readout), or false
// when the session consumed no frame or failed. The session must not be
// used afterwards: its scratch returns to the graph's pool.
func (s *Session) Finish() (Result, bool) {
	defer s.release()
	if s.frames == 0 || s.sc == nil {
		return Result{}, false
	}
	return s.readout(), true
}

// release hands the scratch back for the next session on this graph.
func (s *Session) release() {
	if s.sc != nil {
		s.d.graph.pool.Put(s.sc)
		s.sc = nil
	}
}
