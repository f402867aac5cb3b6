package hmm

import (
	"context"
	"fmt"
	"math"
	"time"
)

// chunked is what both sessions keep of a search advanced chunk by chunk
// as audio arrives, and the one loop that advances them.
type chunked struct {
	d       *Decoder
	frames  int           // feature frames consumed so far
	elapsed time.Duration // decode wall time across Advance calls
}

// Frames returns the number of feature frames consumed so far.
func (c *chunked) Frames() int { return c.frames }

// advance scores one chunk of feature frames in a single Scorer call (one
// GEMM per chunk, the granularity the batch scheduler coalesces across
// requests) and hands relax each row in turn, read where the scorer left
// it. ctx is checked before and right after scoring, which a canceled
// request cuts short, and then every ctxCheckInterval frames, so an
// expired deadline releases the core mid-chunk. A scorer that comes back
// with anything but one row per frame while ctx is live is an error.
func (c *chunked) advance(ctx context.Context, frames [][]float64, relax func(emit []float64)) error {
	if len(frames) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { c.elapsed += time.Since(start) }()
	rows := c.d.scorer.Score(ctx, frames)
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(rows) != len(frames) {
		return fmt.Errorf("hmm: scorer returned %d rows for %d frames", len(rows), len(frames))
	}
	for _, emit := range rows {
		if c.frames > 0 && c.frames%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		relax(emit)
		c.frames++
	}
	return nil
}

// Session is a frame-synchronous Viterbi search that can be advanced
// chunk by chunk as audio arrives, instead of requiring the whole
// utterance up front. Between Advance calls the token beam stays live,
// so BestWords can report the committed-word prefix of the current best
// path (the raw material for streaming partial hypotheses) and Result
// finishes the search with exactly the selection logic of a one-shot
// Decode. DecodeContext is itself one Session advanced once, so the
// streaming and one-shot paths cannot diverge.
//
// A Session borrows the decoder's scratch: at most one Session per
// Decoder may be live at a time, and like the Decoder it is not safe
// for concurrent use.
type Session struct {
	chunked
	totalActive int
}

// NewSession resets the decoder scratch and starts a streaming search.
// Any previous Session on this decoder is invalidated.
func (d *Decoder) NewSession() *Session {
	sc := &d.sc
	sc.prepare(d.graph)
	for i := range sc.cur {
		sc.cur[i] = math.Inf(-1)
		sc.curHist[i] = nil
	}
	return &Session{chunked: chunked{d: d}}
}

// Advance scores and relaxes one chunk of feature frames.
func (s *Session) Advance(ctx context.Context, frames [][]float64) error {
	d := s.d
	g := d.graph
	sc := &d.sc
	return s.advance(ctx, frames, func(emit []float64) {
		if s.frames > 0 {
			s.totalActive += d.step(emit)
			return
		}
		// Frame 0: enter each word start.
		for wi, st := range g.wordStart {
			sc.cur[st] = g.startProbs[wi] + emit[g.senones[st]]
		}
		s.totalActive += countActive(sc.cur)
	})
}

// BestWords returns the committed words on the current globally best
// path — the partial hypothesis. The word being decoded right now is
// not included (it has not crossed a word boundary yet), which is what
// makes the prefix monotone enough for stability detection. Returns nil
// before any frame has been consumed.
func (s *Session) BestWords() []string {
	sc := &s.d.sc
	best := math.Inf(-1)
	bi := -1
	for i, v := range sc.cur {
		if v > best {
			best = v
			bi = i
		}
	}
	if bi < 0 {
		return nil
	}
	return historyWords(s.d.graph, sc.curHist[bi])
}

// Result ends the search and picks the winning hypothesis exactly as
// Decode does: best word-final token, falling back to the global best,
// with the confidence margin against the runner-up ending in a
// different word. The Session must not be advanced afterwards.
func (s *Session) Result() Result {
	if s.frames == 0 {
		return Result{}
	}
	start := time.Now()
	d := s.d
	g := d.graph
	sc := &d.sc
	n := g.NumStates()
	cur, curHist := sc.cur, sc.curHist
	// Pick the best word-final token; fall back to the global best. The
	// runner-up ending in a different word supplies the confidence margin.
	bestScore := math.Inf(-1)
	bestState := -1
	secondScore := math.Inf(-1)
	secondState := -1
	for st := 0; st < n; st++ {
		if g.wordEnd[st] < 0 {
			continue
		}
		if cur[st] > bestScore {
			if bestState >= 0 && g.wordEnd[bestState] != g.wordEnd[st] {
				secondScore, secondState = bestScore, bestState
			}
			bestScore = cur[st]
			bestState = st
		} else if cur[st] > secondScore && (bestState < 0 || g.wordEnd[bestState] != g.wordEnd[st]) {
			secondScore = cur[st]
			secondState = st
		}
	}
	var hist *histNode
	if bestState >= 0 {
		hist = sc.arena.alloc(g.wordEnd[bestState], curHist[bestState])
	} else {
		for st := 0; st < n; st++ {
			if cur[st] > bestScore {
				bestScore = cur[st]
				bestState = st
			}
		}
		if bestState >= 0 {
			hist = curHist[bestState]
		}
	}
	res := Result{
		Words:     historyWords(g, hist),
		Score:     bestScore,
		Frames:    s.frames,
		AvgActive: float64(s.totalActive) / float64(s.frames),
	}
	if secondState >= 0 && !math.IsInf(secondScore, -1) {
		res.Confidence = (bestScore - secondScore) / float64(s.frames)
		res.RunnerUp = g.lex.Words()[g.wordEnd[secondState]]
	}
	decodeTime.Observe(s.elapsed + time.Since(start))
	return res
}

// NBestSession is the streaming counterpart of DecodeNBest: a
// frame-synchronous search keeping up to k tokens per state, advanced
// chunk by chunk, whose Finish returns the n best distinct word
// sequences. It is the search every recognizer with trigram rescoring
// enabled runs, one-shot or streamed, so both finals go through the same
// two-pass arrangement. Unlike Session it does not use the decoder
// scratch: its token lists come from a pool on the graph and go back at
// Finish.
type NBestSession struct {
	chunked
	n         int
	sc        *nbestScratch // nil once finished
	best      float64       // best token score after the last frame
	bestState int32         // the state holding it; -1 when no token is live
}

// NewNBestSession starts a streaming n-best search.
func (d *Decoder) NewNBestSession(n int) *NBestSession {
	if n < 1 {
		n = 1
	}
	return &NBestSession{
		chunked:   chunked{d: d},
		n:         n,
		sc:        d.graph.nbestScratch(max(n+2, 4)),
		best:      math.Inf(-1),
		bestState: -1,
	}
}

// Advance scores and relaxes one chunk of feature frames, Session.Advance
// for the k-token-per-state search.
func (s *NBestSession) Advance(ctx context.Context, frames [][]float64) error {
	g := s.d.graph
	sc := s.sc
	return s.advance(ctx, frames, func(emit []float64) {
		if s.frames > 0 {
			s.step(emit)
			return
		}
		// Frame 0: enter each word start.
		for wi, st := range g.wordStart {
			tok := token{score: g.startProbs[wi] + emit[g.senones[st]]}
			sc.cur[int(st)*sc.k], sc.ncur[st], sc.last[wi] = tok, 1, st
			if tok.score > s.best {
				s.best, s.bestState = tok.score, st
			}
		}
	})
}

// BestWords returns the committed words of the current best token, the
// n-best analogue of Session.BestWords.
func (s *NBestSession) BestWords() []string {
	if s.bestState < 0 || s.sc == nil {
		return nil
	}
	return historyWords(s.d.graph, s.sc.list(s.bestState)[0].hist)
}

// Finish ends the search and returns the n best distinct word
// sequences (best first), deduped by word sequence exactly as
// DecodeNBest does. The session must not be used afterwards: its
// scratch returns to the graph's pool.
func (s *NBestSession) Finish() []Result {
	if s.frames == 0 || s.sc == nil {
		s.release()
		return nil
	}
	start := time.Now()
	hyps := materializeNBest(s.d.graph, s.sc.list, s.frames)
	out := finishNBest(hyps, s.n, s.frames)
	s.release()
	decodeTime.Observe(s.elapsed + time.Since(start))
	return out
}

// release hands the scratch back for the next session on this graph.
func (s *NBestSession) release() {
	if s.sc != nil {
		s.d.graph.nbestPool.Put(s.sc)
		s.sc = nil
	}
}
