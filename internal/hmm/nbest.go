package hmm

import (
	"context"
	"math"
	"sort"
	"strings"
)

// token is one hypothesis in a state's N-best list.
type token struct {
	score float64
	hist  *histNode
}

// nbestScratch is the reusable state of one NBestSession: a token list
// per state on each side of the frame swap, every list living in its own
// k slots of one slab, and the backpointer arena. It is pooled on the
// Graph, so a session costs no allocation once the pool is warm.
type nbestScratch struct {
	k         int
	cur, next [][]token
	emit      []float64
	arena     histArena
}

// nbestScratch takes a scratch for k tokens per state from the graph's
// pool, or builds one.
func (g *Graph) nbestScratch(k, senones int) *nbestScratch {
	sc, _ := g.nbestPool.Get().(*nbestScratch)
	if sc == nil || sc.k != k || len(sc.emit) != senones {
		n := g.NumStates()
		slab := make([]token, 2*n*k)
		sc = &nbestScratch{k: k, cur: make([][]token, n), next: make([][]token, n), emit: make([]float64, senones)}
		for st := range sc.cur {
			sc.cur[st] = slab[2*st*k : 2*st*k : 2*st*k+k]
			sc.next[st] = slab[2*st*k+k : 2*st*k+k : 2*st*k+2*k]
		}
	}
	for st := range sc.cur {
		sc.cur[st] = sc.cur[st][:0]
	}
	sc.arena.reset()
	return sc
}

// rank is where a token with this score belongs in list (sorted
// descending): behind the entries it ties with.
func rank(list []token, score float64) int {
	return sort.Search(len(list), func(i int) bool { return list[i].score < score })
}

// insertAt puts t at pos < k in list, whose backing array has room for k
// entries; the last of k falls off.
func insertAt(list []token, pos int, t token, k int) []token {
	if len(list) < k {
		list = append(list, token{})
	}
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	return list
}

// step relaxes every arc for one frame against the emission scores in
// emit and swaps the token lists: every surviving token goes down every
// arc of its state, states and ranks ascending, so of two equal scores
// the earlier arrival stays ahead. A token is ranked in the target list
// before anything is made for it, so one the list turns away costs the
// search alone, and a word's history node is made only when some word
// start takes the token: one per token, from the session's arena, not
// one per arc from the heap. Nothing is allocated once the arena has
// grown.
func (s *NBestSession) step(emit []float64) {
	sc := s.sc
	g := s.d.graph
	k := sc.k
	threshold := math.Inf(-1)
	if s.d.cfg.Beam > 0 {
		threshold = s.best - s.d.cfg.Beam
	}
	for st := range sc.next {
		sc.next[st] = sc.next[st][:0]
	}
	for st, list := range sc.cur {
		for _, tok := range list {
			if tok.score < threshold {
				break // sorted descending
			}
			var ended *histNode // tok.hist plus the word this state ends
			for _, a := range g.arcs[st] {
				score := tok.score + a.weight
				to := sc.next[a.to]
				pos := rank(to, score)
				if pos >= k {
					continue
				}
				hist := tok.hist
				if a.wordLabel >= 0 {
					if ended == nil {
						ended = sc.arena.alloc(a.wordLabel, tok.hist)
					}
					hist = ended
				}
				sc.next[a.to] = insertAt(to, pos, token{score: score, hist: hist}, k)
			}
		}
	}
	best, bestState := math.Inf(-1), int32(-1)
	for st, list := range sc.next {
		e := emit[g.senones[st]]
		for i := range list {
			list[i].score += e
		}
		if len(list) > 0 && list[0].score > best {
			best, bestState = list[0].score, int32(st)
		}
	}
	sc.cur, sc.next = sc.next, sc.cur
	s.best, s.bestState = best, bestState
}

// DecodeNBest runs the Viterbi search keeping up to k tokens per state
// and returns the n best distinct word sequences (best first). With n=1
// it agrees with Decode. The extra hypotheses feed trigram rescoring
// (Trigram.Rescore), the classic two-pass decoder arrangement.
func (d *Decoder) DecodeNBest(frames [][]float64, n int) []Result {
	res, _ := d.DecodeNBestContext(context.Background(), frames, n)
	return res
}

// DecodeNBestContext is DecodeNBest with cancellation: like
// DecodeContext it checks ctx every ctxCheckInterval frames and after
// batched scoring, returning ctx.Err() with no hypotheses so a dead
// request stops burning cores mid-search. It is one NBestSession
// advanced over the whole utterance, so the one-shot and streaming
// n-best paths share the search verbatim.
func (d *Decoder) DecodeNBestContext(ctx context.Context, frames [][]float64, n int) ([]Result, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := d.NewNBestSession(n)
	if err := s.Advance(ctx, frames); err != nil {
		s.release()
		return nil, err
	}
	return s.Finish(), nil
}

// hyp is one deduped n-best entry keyed by its joined word sequence.
type hyp struct {
	words string
	res   Result
}

// materializeNBest collects word-final hypotheses from the surviving
// token lists, deduped by word sequence (keeping the best score per
// sequence).
func materializeNBest(g *Graph, cur [][]token, nStates, frames int) []hyp {
	seen := map[string]int{}
	var hyps []hyp
	add := func(words []string, score float64) {
		key := strings.Join(words, " ")
		if idx, ok := seen[key]; ok {
			if score > hyps[idx].res.Score {
				hyps[idx].res.Score = score
			}
			return
		}
		seen[key] = len(hyps)
		hyps = append(hyps, hyp{words: key, res: Result{Words: words, Score: score, Frames: frames}})
	}
	for s := 0; s < nStates; s++ {
		if g.wordEnd[s] < 0 {
			continue
		}
		for _, tok := range cur[s] {
			add(historyWords(g, &histNode{word: g.wordEnd[s], prev: tok.hist}), tok.score)
		}
	}
	if len(hyps) == 0 {
		// No token ended on a word-final state (aggressive beam or an
		// utterance cut mid-word): fall back to every surviving token's
		// completed-word history, mirroring Decode's fallback.
		for s := 0; s < nStates; s++ {
			for _, tok := range cur[s] {
				add(historyWords(g, tok.hist), tok.score)
			}
		}
	}
	return hyps
}

// finishNBest sorts, truncates to n, and attaches the confidence margin
// between the two best hypotheses.
func finishNBest(hyps []hyp, n, frames int) []Result {
	sort.Slice(hyps, func(i, j int) bool { return hyps[i].res.Score > hyps[j].res.Score })
	if len(hyps) > n {
		hyps = hyps[:n]
	}
	out := make([]Result, len(hyps))
	for i, h := range hyps {
		out[i] = h.res
		if i == 0 && len(hyps) > 1 {
			out[i].Confidence = (hyps[0].res.Score - hyps[1].res.Score) / float64(frames)
			if len(hyps[1].res.Words) > 0 {
				out[i].RunnerUp = hyps[1].res.Words[len(hyps[1].res.Words)-1]
			}
		}
	}
	return out
}

// historyWords materializes a backpointer chain in utterance order.
func historyWords(g *Graph, h *histNode) []string {
	var words []string
	for ; h != nil; h = h.prev {
		words = append(words, g.lex.Words()[h.word])
	}
	for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
		words[i], words[j] = words[j], words[i]
	}
	return words
}
