package hmm

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// insertToken keeps list sorted descending with at most k entries; a
// newcomer goes behind the entries it ties with.
func insertToken(list []token, t token, k int) []token {
	pos := sort.Search(len(list), func(i int) bool { return list[i].score < t.score })
	if pos >= k {
		return list
	}
	list = append(list, token{})
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	if len(list) > k {
		list = list[:k]
	}
	return list
}

// arc is one transition of the dense graph the reference searches walk.
type arc struct {
	to        int32
	wordLabel int32 // word completed when this arc fires; -1 otherwise
	weight    float64
}

// denseArcs lays g out arc by arc, the way the graph itself used to be
// held: per state its self loop, then its advance or, from a word's final
// state, one arc to every word start. The cross-word weights come straight
// from the LM and never from the graph's factored tables, so a mistake in
// the factoring cannot hide from the references that check it.
func denseArcs(g *Graph, lm *Bigram, cfg Config) [][]arc {
	arcs := make([][]arc, g.numStates())
	for wi := range g.wordStart {
		for s := g.wordStart[wi]; s <= g.wordFinal[wi]; s++ {
			arcs[s] = append(arcs[s], arc{to: s, wordLabel: -1, weight: logSelf})
			if s < g.wordFinal[wi] {
				arcs[s] = append(arcs[s], arc{to: s + 1, wordLabel: -1, weight: logNext})
			}
		}
	}
	for wi := range g.wordStart {
		from := g.wordFinal[wi]
		for wj := range g.wordStart {
			w := logNext + cfg.LMWeight*lm.logProb(wi, wj) + cfg.WordPenalty
			arcs[from] = append(arcs[from], arc{to: g.wordStart[wj], wordLabel: int32(wi), weight: w})
		}
	}
	return arcs
}

// CheckFactoring holds g's factored cross-word tables to the dense arcs:
// every arc's weight must come back bit for bit, as the exception listed
// for its source under its target or else as the source's base, and each
// exception list must be in ascending source order. It returns the number
// of exception arcs.
func CheckFactoring(g *Graph, lm *Bigram, cfg Config) (int, error) {
	arcs := denseArcs(g, lm, cfg)
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
		for wi, from := range g.wordFinal {
			got, ok := own[int32(wi)]
			if !ok {
				got = g.xBase[wi]
			}
			// A word-final state's arcs: its self loop, then one per word.
			if a := arcs[from][1+wj]; a.to != g.wordStart[wj] || math.Float64bits(got) != math.Float64bits(a.weight) {
				return 0, fmt.Errorf("arc %d->%d: factored weight %v, dense %v", wi, wj, got, a.weight)
			}
		}
	}
	return exceptions, nil
}

// refDecode is the 1-best search as Decoder.step first ran it, kept as
// the reference that n = 1 of the one search is Viterbi: every token the
// beam keeps is pushed down every arc of its state, states ascending, and
// a state keeps the first of its best arrivals. It shares no code with
// the search's token lists or its hypothesis selection (selectNBest).
type refDecode struct {
	d                 *Decoder
	arcs              [][]arc
	cur, next         []float64
	curHist, nextHist []*histNode
	emit              []float64
	frames            int
}

func newRefDecode(d *Decoder, lm *Bigram) *refDecode {
	n := d.graph.numStates()
	s := &refDecode{
		d:    d,
		arcs: denseArcs(d.graph, lm, d.cfg),
		cur:  make([]float64, n), next: make([]float64, n),
		curHist: make([]*histNode, n), nextHist: make([]*histNode, n),
	}
	for i := range s.cur {
		s.cur[i] = math.Inf(-1)
	}
	return s
}

func (s *refDecode) advance(frame []float64) {
	d := s.d
	g := d.graph
	s.emit = d.scorer.Score(context.Background(), [][]float64{frame})[0]
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
	if d.cfg.Beam > 0 {
		threshold = best - d.cfg.Beam
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

// result picks the winning hypothesis by the 1-best rule: the best
// word-final token (the lowest such state on a tie), falling back to the
// global best.
func (s *refDecode) result() Result {
	if s.frames == 0 {
		return Result{}
	}
	g := s.d.graph
	cur, curHist := s.cur, s.curHist
	bestScore, bestState := math.Inf(-1), -1
	for st := range cur {
		if g.wordEnd[st] >= 0 && cur[st] > bestScore {
			bestScore, bestState = cur[st], st
		}
	}
	var hist *histNode
	if bestState >= 0 {
		hist = &histNode{word: g.wordEnd[bestState], prev: curHist[bestState]}
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

// RefDecode is the 1-best decode by the reference search.
func RefDecode(d *Decoder, lm *Bigram, frames [][]float64) Result {
	s := newRefDecode(d, lm)
	for _, f := range frames {
		s.advance(f)
	}
	return s.result()
}

// refNBest is the n-best search as NBestSession first ran it, kept as
// the reference the differential tests compare against: every surviving
// token is pushed down every arc of the dense graph, states and ranks
// ascending, into per-state lists where an earlier insertion wins a
// tie, with a fresh history node per word-boundary arc. It shares only
// the hypothesis selection (selectNBest) with the product search.
type refNBest struct {
	d         *Decoder
	arcs      [][]arc
	n, k      int
	cur, next [][]token
	emit      []float64
	frames    int
}

func newRefNBest(d *Decoder, lm *Bigram, n int) *refNBest {
	if n < 1 {
		n = 1
	}
	nStates := d.graph.numStates()
	return &refNBest{
		d:    d,
		arcs: denseArcs(d.graph, lm, d.cfg),
		n:    n,
		k:    tokensPerState(n),
		cur:  make([][]token, nStates),
		next: make([][]token, nStates),
	}
}

func (s *refNBest) advance(frame []float64) {
	d := s.d
	g := d.graph
	nStates := g.numStates()
	s.emit = d.scorer.Score(context.Background(), [][]float64{frame})[0]
	s.frames++
	if s.frames == 1 {
		for wi, st := range g.wordStart {
			s.cur[st] = insertToken(s.cur[st], token{score: g.startProbs[wi] + s.emit[g.senones[st]]}, s.k)
		}
		return
	}
	for i := range s.next {
		s.next[i] = s.next[i][:0]
	}
	best := math.Inf(-1)
	for _, list := range s.cur {
		if len(list) > 0 && list[0].score > best {
			best = list[0].score
		}
	}
	threshold := math.Inf(-1)
	if d.cfg.Beam > 0 {
		threshold = best - d.cfg.Beam
	}
	for st := 0; st < nStates; st++ {
		for _, tok := range s.cur[st] {
			if tok.score < threshold {
				break // sorted descending
			}
			for _, a := range s.arcs[st] {
				h := tok.hist
				if a.wordLabel >= 0 {
					h = &histNode{word: a.wordLabel, prev: tok.hist}
				}
				s.next[a.to] = insertToken(s.next[a.to], token{score: tok.score + a.weight, hist: h}, s.k)
			}
		}
	}
	for st := 0; st < nStates; st++ {
		e := s.emit[g.senones[st]]
		for i := range s.next[st] {
			s.next[st][i].score += e
		}
	}
	s.cur, s.next = s.next, s.cur
}

func (s *refNBest) finish() []Result {
	if s.frames == 0 {
		return nil
	}
	return selectNBest(s.d.graph, func(st int32) []token { return s.cur[st] }, s.n, s.frames)
}

// RefDecodeNBest is DecodeNBest by the reference search.
func RefDecodeNBest(d *Decoder, lm *Bigram, frames [][]float64, n int) []Result {
	s := newRefNBest(d, lm, n)
	for _, f := range frames {
		s.advance(f)
	}
	return s.finish()
}

// LockstepNBest advances the reference and an NBestSession over d frame
// by frame and reports the first frame after which any state's token
// list differs: length, a score bit, or a token's word history. It sees
// a reordering of equal-scored tokens that the final n-best list, which
// dedupes and sorts, can hide.
func LockstepNBest(d *Decoder, lm *Bigram, frames [][]float64, n int) error {
	ref := newRefNBest(d, lm, n)
	s := d.NewNBestSession(n)
	defer s.release()
	words := func(h *histNode) string { return strings.Join(historyWords(d.graph, h), " ") }
	for f := range frames {
		ref.advance(frames[f])
		if err := s.Advance(context.Background(), frames[f:f+1]); err != nil {
			return err
		}
		for st, want := range ref.cur {
			got := s.sc.list(int32(st))
			if len(got) != len(want) {
				return fmt.Errorf("frame %d state %d: %d tokens, want %d", f, st, len(got), len(want))
			}
			for r := range want {
				if math.Float64bits(got[r].score) != math.Float64bits(want[r].score) || words(got[r].hist) != words(want[r].hist) {
					return fmt.Errorf("frame %d state %d rank %d: (%v, %q), want (%v, %q)",
						f, st, r, got[r].score, words(got[r].hist), want[r].score, words(want[r].hist))
				}
			}
		}
	}
	return nil
}

// DecodeNBestContext runs the search over a whole feature-frame sequence
// as one NBestSession advanced once, and returns the n best distinct word
// sequences (best first), or ctx.Err() and no hypotheses when the context
// ends the search.
func (d *Decoder) DecodeNBestContext(ctx context.Context, frames [][]float64, n int) ([]Result, error) {
	s := d.NewNBestSession(n)
	if err := s.Advance(ctx, frames); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// DecodeNBest is DecodeNBestContext under a background context.
func (d *Decoder) DecodeNBest(frames [][]float64, n int) []Result {
	res, _ := d.DecodeNBestContext(context.Background(), frames, n)
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
