package hmm

import (
	"context"
	"fmt"
	"math"
	"strings"
)

// arc is one transition of the dense graph the reference searches walk.
type arc struct {
	to        int32
	wordLabel int32 // word completed when this arc fires; -1 otherwise
	weight    float64
}

// refExits maps each state a word can be left from to that word, read
// from the lexicon and the word's run of states rather than from the
// graph's own exits: its last phone state and, when the lexicon holds
// SilenceWord and the word is another, the last state of its silence tail.
func refExits(g *Graph) map[int32]int32 {
	ends := map[int32]int32{}
	for wi, word := range g.lex.words {
		pron, _ := g.lex.Pron(word)
		ends[g.wordStart[wi]+int32(len(pron)*StatesPerPhone)-1] = int32(wi)
		if _, ok := g.lex.indexOf[SilenceWord]; ok && word != SilenceWord {
			ends[g.wordStart[wi]+int32((len(pron)+1)*StatesPerPhone)-1] = int32(wi)
		}
	}
	return ends
}

// denseArcs lays g out arc by arc, the way the graph itself used to be
// held: per state its self loop, then its advance if it is not its word's
// last, then, from each of the word's exits (refExits), one arc to every
// word start. The cross-word weights come straight from the LM and never
// from the graph's factored tables, so a mistake in the factoring cannot
// hide from the references that check it.
func denseArcs(g *Graph, lm *Bigram) [][]arc {
	cfg := g.cfg
	arcs := make([][]arc, g.numStates())
	for wi := range g.wordStart {
		for s := g.wordStart[wi]; s <= g.wordFinal[wi]; s++ {
			arcs[s] = append(arcs[s], arc{to: s, wordLabel: -1, weight: logSelf})
			if s < g.wordFinal[wi] {
				arcs[s] = append(arcs[s], arc{to: s + 1, wordLabel: -1, weight: logNext})
			}
		}
	}
	for from, wi := range refExits(g) {
		for wj := range g.wordStart {
			w := logNext + cfg.LMWeight*lm.logProb(int(wi), wj) + cfg.WordPenalty
			arcs[from] = append(arcs[from], arc{to: g.wordStart[wj], wordLabel: wi, weight: w})
		}
	}
	return arcs
}

// CheckFactoring holds g's factored cross-word tables to the dense arcs:
// every arc's weight must come back bit for bit, as the exception listed
// for its source under its target or else as the source's base, and each
// exception list must be in ascending source order. It returns the number
// of exception arcs.
func CheckFactoring(g *Graph, lm *Bigram) (int, error) {
	arcs := denseArcs(g, lm)
	ends := refExits(g)
	v := len(g.wordStart)
	exceptions := 0
	for wj, exc := range g.xExc {
		own := map[int32]float64{}
		for i, e := range exc {
			if i > 0 && e.from <= exc[i-1].from {
				return 0, fmt.Errorf("exceptions into word %d: source %d after %d", wj, e.from, exc[i-1].from)
			}
			if math.Float64bits(e.weight) == math.Float64bits(g.xBase[e.from]) {
				return 0, fmt.Errorf("arc %d->%d is listed as an exception at its source's base weight", e.from, wj)
			}
			own[e.from] = e.weight
		}
		exceptions += len(exc)
		if len(exc) > g.maxExc {
			return 0, fmt.Errorf("%d exceptions into word %d, maxExc %d", len(exc), wj, g.maxExc)
		}
		for from, wi := range ends {
			got, ok := own[wi]
			if !ok {
				got = g.xBase[wi]
			}
			// An exit's arcs end with one per word.
			if a := arcs[from][len(arcs[from])-v+wj]; a.to != g.wordStart[wj] || math.Float64bits(got) != math.Float64bits(a.weight) {
				return 0, fmt.Errorf("arc %d->%d from state %d: factored weight %v, dense %v", wi, wj, from, got, a.weight)
			}
		}
	}
	return exceptions, nil
}

// refDecode is the 1-best search as the frame step first ran it, kept as
// the reference that the one search is Viterbi: every token the beam
// keeps is pushed down every arc of its state, states ascending, and a
// state keeps the first of its best arrivals. It shares no code with the
// search's tokens or its readout.
type refDecode struct {
	g                 *Graph
	scorer            Scorer
	arcs              [][]arc
	cur, next         []float64
	curHist, nextHist []*histNode
	emit              []float64
	frames            int
}

func newRefDecode(g *Graph, scorer Scorer, lm *Bigram) *refDecode {
	n := g.numStates()
	s := &refDecode{
		g: g, scorer: scorer,
		arcs: denseArcs(g, lm),
		cur:  make([]float64, n), next: make([]float64, n),
		curHist: make([]*histNode, n), nextHist: make([]*histNode, n),
	}
	for i := range s.cur {
		s.cur[i] = math.Inf(-1)
	}
	return s
}

func (s *refDecode) advance(frame []float64) {
	g := s.g
	s.emit = s.scorer.Score(context.Background(), [][]float64{frame})[0]
	s.frames++
	if s.frames == 1 {
		for wi, st := range g.wordStart {
			s.cur[st] = g.startProbs[wi] + s.emit[g.senones[st]]
		}
		return
	}
	for i := range s.next {
		s.next[i], s.nextHist[i] = math.Inf(-1), nil
	}
	best := math.Inf(-1)
	for _, v := range s.cur {
		best = max(best, v)
	}
	threshold := math.Inf(-1)
	if g.cfg.Beam > 0 {
		threshold = best - g.cfg.Beam
	}
	for st, score := range s.cur {
		if score < threshold || math.IsInf(score, -1) {
			continue
		}
		for _, a := range s.arcs[st] {
			if cand := score + a.weight; cand > s.next[a.to] {
				s.next[a.to], s.nextHist[a.to] = cand, s.curHist[st]
				if a.wordLabel >= 0 {
					s.nextHist[a.to] = &histNode{word: a.wordLabel, prev: s.curHist[st]}
				}
			}
		}
	}
	for st := range s.next {
		if !math.IsInf(s.next[st], -1) {
			s.next[st] += s.emit[g.senones[st]]
		}
	}
	s.cur, s.next = s.next, s.cur
	s.curHist, s.nextHist = s.nextHist, s.curHist
}

// result picks the winning hypothesis by the 1-best rule: the best token
// on an exit (the lowest such state on a tie), falling back to the global
// best.
func (s *refDecode) result() Result {
	if s.frames == 0 {
		return Result{}
	}
	g := s.g
	cur, curHist := s.cur, s.curHist
	ends := refExits(g)
	bestScore, bestState := math.Inf(-1), -1
	for st := range cur {
		if _, ok := ends[int32(st)]; ok && cur[st] > bestScore {
			bestScore, bestState = cur[st], st
		}
	}
	var hist *histNode
	if bestState >= 0 {
		hist = &histNode{word: ends[int32(bestState)], prev: curHist[bestState]}
	} else {
		for st := range cur {
			if cur[st] > bestScore {
				bestScore, bestState = cur[st], st
			}
		}
		if bestState >= 0 {
			hist = curHist[bestState]
		}
	}
	return Result{Words: historyWords(g, hist), Score: bestScore, Frames: s.frames}
}

// RefDecode is the 1-best decode of g under scorer by the reference
// search.
func RefDecode(g *Graph, scorer Scorer, lm *Bigram, frames [][]float64) Result {
	s := newRefDecode(g, scorer, lm)
	for _, f := range frames {
		s.advance(f)
	}
	return s.result()
}

// Lockstep advances the reference and a Session of g under scorer frame
// by frame and reports the first frame after which any state's token
// differs from the reference's: a score bit, or the words of its history.
// It sees a tie broken the other way in a state the finished hypothesis
// does not pass through.
func Lockstep(g *Graph, scorer Scorer, lm *Bigram, frames [][]float64) error {
	ref := newRefDecode(g, scorer, lm)
	s, err := g.NewSession(scorer)
	if err != nil {
		return err
	}
	defer s.release()
	words := func(h *histNode) string { return strings.Join(historyWords(g, h), " ") }
	for f := range frames {
		ref.advance(frames[f])
		if err := s.Advance(context.Background(), frames[f:f+1]); err != nil {
			return err
		}
		for st, want := range ref.cur {
			got := s.sc.cur[st]
			if math.Float64bits(got.score) != math.Float64bits(want) || words(got.hist) != words(ref.curHist[st]) {
				return fmt.Errorf("frame %d state %d: (%v, %q), want (%v, %q)",
					f, st, got.score, words(got.hist), want, words(ref.curHist[st]))
			}
		}
	}
	return nil
}

// DecodeContext runs a search of g under scorer over a whole
// feature-frame sequence as one Session advanced once and returns its
// hypothesis, or the error that refused the session or ended the search
// (ctx.Err() when the context did) and no hypothesis.
func (g *Graph) DecodeContext(ctx context.Context, scorer Scorer, frames [][]float64) (Result, error) {
	s, err := g.NewSession(scorer)
	if err != nil {
		return Result{}, err
	}
	if err := s.Advance(ctx, frames); err != nil {
		return Result{}, err
	}
	res, _ := s.Finish()
	return res, nil
}

// Decode is DecodeContext under a background context.
func (g *Graph) Decode(scorer Scorer, frames [][]float64) Result {
	res, _ := g.DecodeContext(context.Background(), scorer, frames)
	return res
}

// Perplexity evaluates the model on a sentence: +Inf when no word of it
// is in the vocabulary.
func (b *Bigram) Perplexity(sentence string) float64 {
	prev := -1
	var logp float64
	var n int
	for _, w := range strings.Fields(sentence) {
		idx := b.lex.index(normalizeWord(w))
		if idx < 0 {
			continue
		}
		logp += b.logProb(prev, idx)
		prev = idx
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logp / float64(n))
}

// Words returns the vocabulary in insertion order.
func (l *Lexicon) Words() []string { return l.words }

// Add inserts a word with an explicit pronunciation.
func (l *Lexicon) Add(word string, phones []string) { l.add(word, phones) }

// Size returns the vocabulary size.
func (l *Lexicon) Size() int { return l.size() }
