package hmm

import (
	"context"
	"fmt"
	"math"
)

// NBestSession is the Viterbi search: frame-synchronous, keeping up to k
// tokens per state, advanced chunk by chunk as audio arrives instead of
// requiring the whole utterance up front, whose Finish returns the n best
// distinct word sequences. At n = 1 it keeps one token per state and is
// token-passing Viterbi 1-best; at n > 1 the extra hypotheses feed
// trigram rescoring. Between Advance calls the token lists stay live, so
// BestWords can report the committed-word prefix of the current best path
// (the raw material for streaming partial hypotheses), and DecodeNBestContext is
// one session advanced once, so the streaming and one-shot paths cannot
// diverge. The token lists come from a pool on the graph and go back at
// Finish. A session is not safe for concurrent use.
type NBestSession struct {
	d         *Decoder
	n         int
	frames    int           // feature frames consumed so far
	sc        *nbestScratch // nil once finished
	best      float64       // best token score after the last frame
	bestState int32         // the state holding it; -1 when no token is live
}

// tokensPerState is how many tokens a session keeps per state to return n
// hypotheses. The 1-best needs one: a state's best token does not depend
// on what else the state holds. More hypotheses need headroom for the ones
// that dedupe away, several tokens carrying one word sequence.
func tokensPerState(n int) int {
	if n == 1 {
		return 1
	}
	return max(n+2, 4)
}

// NewNBestSession starts a streaming search for the n best hypotheses (at
// least one).
func (d *Decoder) NewNBestSession(n int) *NBestSession {
	n = max(n, 1)
	return &NBestSession{
		d:         d,
		n:         n,
		sc:        d.graph.nbestScratch(tokensPerState(n)),
		best:      math.Inf(-1),
		bestState: -1,
	}
}

// Frames returns the number of feature frames consumed so far.
func (s *NBestSession) Frames() int { return s.frames }

// Advance scores one chunk of feature frames in a single Scorer call (one
// GEMM per chunk, the granularity the batch scheduler coalesces across
// requests) and relaxes each row in turn, read where the scorer left it.
// ctx is checked before and right after scoring, which a canceled request
// cuts short, and then every ctxCheckInterval frames, so an expired
// deadline releases the core mid-chunk. A scorer that comes back with
// anything but one row per frame while ctx is live is an error.
func (s *NBestSession) Advance(ctx context.Context, frames [][]float64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
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
			for wi, st := range g.wordStart {
				tok := token{score: g.startProbs[wi] + emit[g.senones[st]]}
				sc.cur[int(st)*sc.k], sc.ncur[st], sc.last[wi] = tok, 1, st
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
func (s *NBestSession) BestWords() []string {
	if s.bestState < 0 || s.sc == nil {
		return nil
	}
	return historyWords(s.d.graph, s.sc.list(s.bestState)[0].hist)
}

// Finish ends the search and returns the n best distinct word
// sequences (best first), deduped by word sequence exactly as
// DecodeNBestContext does. The session must not be used afterwards: its
// scratch returns to the graph's pool.
func (s *NBestSession) Finish() []Result {
	if s.frames == 0 || s.sc == nil {
		s.release()
		return nil
	}
	out := selectNBest(s.d.graph, s.sc.list, s.n, s.frames)
	s.release()
	return out
}

// release hands the scratch back for the next session on this graph.
func (s *NBestSession) release() {
	if s.sc != nil {
		s.d.graph.nbestPool.Put(s.sc)
		s.sc = nil
	}
}
