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

// refNBest is the n-best search as NBestSession first ran it, kept as
// the reference the differential tests compare against: every surviving
// token is pushed down every arc of its state, states and ranks
// ascending, into per-state lists where an earlier insertion wins a
// tie, with a fresh history node per word-boundary arc. It shares only
// the hypothesis selection (materializeNBest, finishNBest) with the
// product search.
type refNBest struct {
	d         *Decoder
	n, k      int
	cur, next [][]token
	emit      []float64
	frames    int
}

func newRefNBest(d *Decoder, n int) *refNBest {
	if n < 1 {
		n = 1
	}
	nStates := d.graph.NumStates()
	return &refNBest{
		d:    d,
		n:    n,
		k:    max(n+2, 4),
		cur:  make([][]token, nStates),
		next: make([][]token, nStates),
		emit: make([]float64, d.scorer.NumSenones()),
	}
}

func (s *refNBest) advance(frame []float64) {
	d := s.d
	g := d.graph
	nStates := g.NumStates()
	d.scorer.ScoreAll(s.emit, frame)
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
			for _, a := range g.arcs[st] {
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
	return finishNBest(materializeNBest(s.d.graph, s.cur, len(s.cur), s.frames), s.n, s.frames)
}

// RefDecodeNBest is DecodeNBest by the reference search.
func RefDecodeNBest(d *Decoder, frames [][]float64, n int) []Result {
	s := newRefNBest(d, n)
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
func LockstepNBest(d *Decoder, frames [][]float64, n int) error {
	ref := newRefNBest(d, n)
	s := d.NewNBestSession(n)
	defer s.release()
	words := func(h *histNode) string { return strings.Join(historyWords(d.graph, h), " ") }
	for f := range frames {
		ref.advance(frames[f])
		if err := s.Advance(context.Background(), frames[f:f+1]); err != nil {
			return err
		}
		for st, want := range ref.cur {
			got := s.sc.cur[st]
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
