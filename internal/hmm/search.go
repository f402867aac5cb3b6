package hmm

import "math"

// token is a state's one hypothesis; a score of -Inf means the state
// holds none.
type token struct {
	score float64
	hist  *histNode
}

// dead is the token of a state no path reaches.
var dead = token{score: math.Inf(-1)}

// scratch is the reusable state of one Session: a token per state on
// each side of the frame swap. It is pooled on the Graph, so a session
// costs no allocation once the pool is warm.
type scratch struct {
	cur, next []token
	last      []int32 // per word: the highest state holding a token in cur
	x         xScratch
	ended     []*histNode // per exit: its token's history plus its word, once some word start took it
	arena     histArena
}

// scratch takes a scratch from the graph's pool, or builds one.
func (g *Graph) scratch() *scratch {
	sc, _ := g.pool.Get().(*scratch)
	if sc == nil {
		n := g.numStates()
		sc = &scratch{
			cur: make([]token, n), next: make([]token, n),
			last:  make([]int32, len(g.wordStart)),
			ended: make([]*histNode, len(g.exits)),
		}
		sc.x.prepare(g)
	}
	sc.arena.reset()
	return sc
}

// step advances the tokens one frame against the emission scores in
// emit. A state's next token is the best, by (score, source state), of
// the surviving tokens over its incoming arcs: the first of the best to
// arrive if every surviving token were sent down every arc, states
// ascending.
//
// Inside a word that is the better of the advance from the state before,
// which wins a tie, and the self loop.
//
// A word start's sources are its self loop and every exit, and all but a
// few of the exits' arcs into it carry the exit's word's xBase. So the
// surviving exit tokens are ranked once per frame by score + xBase (they
// are collected in state order and a newcomer goes behind its equals),
// and every word start takes the best of its self loop, the first entry
// of that ranking whose word has no exception arc into it, and its
// exception arcs at their own weight (enterWord).
//
// A word's history node is made when a word start first takes the token,
// from the session's arena. Emission scores are added as a token is
// written, states no token can have reached are emptied rather than
// relaxed, and nothing is allocated once the arena has grown.
func (s *Session) step(emit []float64) {
	sc := s.sc
	g := s.d.graph
	threshold := -math.MaxFloat64 // every live token survives
	if s.d.cfg.Beam > 0 {
		threshold = max(threshold, s.best-s.d.cfg.Beam)
	}
	x := sc.x.rank[:0]
	for i, st := range g.exits {
		if tok := sc.cur[st]; tok.score >= threshold {
			sc.ended[i] = nil
			x = pushRanked(x, xcand{score: tok.score + g.xBase[g.exitWord[i]], seq: st, exit: int32(i)}, sc.x.limit)
		}
	}
	best, bestState := math.Inf(-1), int32(-1)
	// written stores tok as state st's next token and reports whether it
	// is live.
	written := func(st int32, tok token) bool {
		sc.next[st] = tok
		if tok.score > best {
			best, bestState = tok.score, st
		}
		return tok.score > math.Inf(-1)
	}
	for wj, ws := range g.wordStart {
		top := ws - 1
		if written(ws, s.enterWord(wj, x, threshold, emit[g.senones[ws]])) {
			top = ws
		}
		wf := g.wordFinal[wj]
		reach := min(sc.last[wj]+1, wf)
		adv := sc.cur[ws]
		for st := ws + 1; st <= reach; st++ {
			self := sc.cur[st]
			out := dead
			if adv.score >= threshold {
				out = token{score: adv.score + logNext, hist: adv.hist}
			}
			if self.score >= threshold && self.score+logSelf > out.score {
				out = token{score: self.score + logSelf, hist: self.hist}
			}
			out.score += emit[g.senones[st]]
			if written(st, out) {
				top = st
			}
			adv = self
		}
		for st := reach + 1; st <= wf; st++ {
			sc.next[st] = dead
		}
		sc.last[wj] = top
	}
	sc.cur, sc.next = sc.next, sc.cur
	s.best, s.bestState = best, bestState
}

// enterWord returns word wj's start-state token for the next frame: the
// best of the state's self loop, the head of the shared ranking x and the
// exception arcs into wj, with the state's emission score e added. Only
// the head of x can matter: wj's exception sources hold at most 2*maxExc
// of its entries, and the first entry past them is the best exit whose arc
// into wj carries its word's xBase.
func (s *Session) enterWord(wj int, x []xcand, threshold, e float64) token {
	sc := s.sc
	g := s.d.graph
	ws := g.wordStart[wj]
	in := xcand{score: math.Inf(-1), seq: ws, exit: -1}
	if self := sc.cur[ws].score; self >= threshold {
		in.score = self + logSelf
	}
	sc.x.flag(g, wj)
	for _, c := range x {
		if sc.x.mark[g.exitWord[c.exit]] != int32(wj)+1 {
			if c.beats(in) {
				in = c
			}
			break
		}
	}
	for _, exc := range g.xExc[wj] {
		for i := g.firstExit[exc.from]; i < g.firstExit[exc.from+1]; i++ {
			st := g.exits[i]
			if tok := sc.cur[st]; tok.score >= threshold {
				if c := (xcand{score: tok.score + exc.weight, seq: st, exit: i}); c.beats(in) {
					in = c
				}
			}
		}
	}
	switch {
	case in.exit >= 0:
		node := &sc.ended[in.exit]
		if *node == nil {
			*node = sc.arena.alloc(g.exitWord[in.exit], sc.cur[in.seq].hist)
		}
		return token{score: in.score + e, hist: *node}
	case in.score > math.Inf(-1):
		return token{score: in.score + e, hist: sc.cur[ws].hist}
	}
	return dead
}

// readout is the hypothesis the search ends on: the best token on an exit,
// the lowest state winning a tie, with the word it ends; or, when no exit
// holds a token (an utterance cut mid-word under a tight beam), the best
// token anywhere, with its completed words.
func (s *Session) readout() Result {
	g := s.d.graph
	cur := s.sc.cur
	at := -1
	best := math.Inf(-1)
	for i, st := range g.exits {
		if cur[st].score > best {
			best, at = cur[st].score, i
		}
	}
	if at < 0 {
		return Result{Words: historyWords(g, cur[s.bestState].hist), Score: s.best, Frames: s.frames}
	}
	words := append(historyWords(g, cur[g.exits[at]].hist), g.lex.words[g.exitWord[at]])
	return Result{Words: words, Score: best, Frames: s.frames}
}

// historyWords materializes a backpointer chain in utterance order.
func historyWords(g *Graph, h *histNode) []string {
	var words []string
	for ; h != nil; h = h.prev {
		words = append(words, g.lex.words[h.word])
	}
	for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
		words[i], words[j] = words[j], words[i]
	}
	return words
}
