package hmm

import (
	"context"
	"math"
	"time"
)

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
	d           *Decoder
	frames      int // feature frames consumed so far
	totalActive int
	elapsed     time.Duration // decode wall time across Advance calls
}

// NewSession resets the decoder scratch and starts a streaming search.
// Any previous Session on this decoder is invalidated.
func (d *Decoder) NewSession() *Session {
	sc := &d.sc
	sc.prepare(d.graph, d.scorer.NumSenones())
	for i := range sc.cur {
		sc.cur[i] = math.Inf(-1)
		sc.curHist[i] = nil
	}
	return &Session{d: d}
}

// Frames returns the number of feature frames consumed so far.
func (s *Session) Frames() int { return s.frames }

// Advance scores and relaxes one chunk of feature frames. Batch-capable
// scorers score the whole chunk up front (one GEMM per chunk — the
// per-chunk granularity the batch scheduler coalesces across requests);
// the frame loop checks ctx on the same cadence as DecodeContext so an
// expired deadline releases the core mid-chunk.
func (s *Session) Advance(ctx context.Context, frames [][]float64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { s.elapsed += time.Since(start) }()
	d := s.d
	g := d.graph
	sc := &d.sc
	var batch [][]float64
	if bs, ok := d.scorer.(BatchScorer); ok {
		batch = bs.ScoreAllBatch(frames)
	}
	// A canceled request's batch submission returns nil; catch it here
	// before falling back to frame-by-frame local scoring.
	if err := ctx.Err(); err != nil {
		return err
	}
	score := func(f int) {
		if batch != nil {
			copy(sc.emit, batch[f])
			return
		}
		d.scorer.ScoreAll(sc.emit, frames[f])
	}
	for f := 0; f < len(frames); f++ {
		t := s.frames
		if t > 0 && t%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		score(f)
		if t == 0 {
			// Frame 0: enter each word start.
			for wi, st := range g.wordStart {
				sc.cur[st] = g.startProbs[wi] + sc.emit[g.senones[st]]
			}
			s.totalActive += countActive(sc.cur)
		} else {
			s.totalActive += d.step(sc.emit)
		}
		s.frames++
	}
	return nil
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
	d         *Decoder
	n         int
	sc        *nbestScratch // nil once finished
	frames    int
	best      float64 // best token score after the last frame
	bestState int32   // the state holding it; -1 when no token is live
	elapsed   time.Duration
}

// NewNBestSession starts a streaming n-best search.
func (d *Decoder) NewNBestSession(n int) *NBestSession {
	if n < 1 {
		n = 1
	}
	k := max(n+2, 4)
	return &NBestSession{
		d:         d,
		n:         n,
		sc:        d.graph.nbestScratch(k, d.scorer.NumSenones()),
		best:      math.Inf(-1),
		bestState: -1,
	}
}

// Frames returns the number of feature frames consumed so far.
func (s *NBestSession) Frames() int { return s.frames }

// Advance scores and relaxes one chunk of feature frames, mirroring
// Session.Advance for the k-token-per-state search.
func (s *NBestSession) Advance(ctx context.Context, frames [][]float64) error {
	if len(frames) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	defer func() { s.elapsed += time.Since(start) }()
	d := s.d
	g := d.graph
	sc := s.sc
	var batch [][]float64
	if bs, ok := d.scorer.(BatchScorer); ok {
		batch = bs.ScoreAllBatch(frames)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for f := 0; f < len(frames); f++ {
		t := s.frames
		if t > 0 && t%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// A batch row is read where the scorer left it.
		emit := sc.emit
		if batch != nil {
			emit = batch[f]
		} else {
			d.scorer.ScoreAll(emit, frames[f])
		}
		if t == 0 {
			// Frame 0: enter each word start.
			for wi, st := range g.wordStart {
				tok := token{score: g.startProbs[wi] + emit[g.senones[st]]}
				sc.cur[int(st)*sc.k], sc.ncur[st], sc.last[wi] = tok, 1, st
				if tok.score > s.best {
					s.best, s.bestState = tok.score, st
				}
			}
		} else {
			s.step(emit)
		}
		s.frames++
	}
	return nil
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
