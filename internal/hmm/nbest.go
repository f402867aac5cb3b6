package hmm

import (
	"math"
	"sort"
	"strings"
)

// token is one hypothesis in a state's N-best list.
type token struct {
	score float64
	hist  *histNode
}

// nbestScratch is the reusable state of one NBestSession. Each side of
// the frame swap is one slab of k slots per state plus a length per
// state; a state's list is sorted by (score descending, seq ascending),
// where a token's seq is the slot it came from in the frame before
// (source state*k + rank there). Every source reaches a state over
// exactly one arc, so seq is the order the tokens would arrive in if each
// surviving token were sent down every arc, states and ranks ascending,
// and the list is what such a relaxation leaves when a newcomer goes
// behind its equals and the k+1st falls off: an online stable top-k is
// the top-k of the total order. The scratch is pooled on the Graph, so a
// session costs no allocation once the pool is warm.
type nbestScratch struct {
	k           int
	cur, next   []token
	ncur, nnext []int32
	last        []int32 // per word: the highest state holding a token in cur, wordStart-1 for none
	x           xScratch
	ended       []*histNode // per word-final token (word*k + rank): its history plus its word, once some word start took it
	startSeq    []int32     // seqs of the word-start list being built
	arena       histArena
}

// nbestScratch takes a scratch for k tokens per state from the graph's
// pool, or builds one.
func (g *Graph) nbestScratch(k int) *nbestScratch {
	sc, _ := g.nbestPool.Get().(*nbestScratch)
	if sc == nil || sc.k != k {
		n, v := g.numStates(), len(g.wordStart)
		sc = &nbestScratch{
			k:   k,
			cur: make([]token, n*k), next: make([]token, n*k),
			ncur: make([]int32, n), nnext: make([]int32, n),
			last:     make([]int32, v),
			ended:    make([]*histNode, v*k),
			startSeq: make([]int32, k),
		}
		sc.x.prepare(g, k)
	}
	clear(sc.ncur)
	sc.arena.reset()
	return sc
}

// list is state st's tokens, best first.
func (sc *nbestScratch) list(st int32) []token {
	return sc.cur[int(st)*sc.k:][:sc.ncur[st]]
}

// survivors is the part of list (best first) the beam keeps.
func survivors(list []token, threshold float64) []token {
	n := len(list)
	for n > 0 && list[n-1].score < threshold {
		n--
	}
	return list[:n]
}

// step advances the token lists one frame against the emission scores in
// emit. A state's next list is the best k, by (score, seq), of the
// surviving tokens over its incoming arcs; since every source list is
// sorted that way already and an arc adds one weight to all of it, that
// is a merge.
//
// Inside a word it is the merge of two lists: the advance from the state
// before, which wins ties (lower seq), and the self loop.
//
// A word start has V+1 sources, V of them word-final states, and all but
// a few of those arcs carry the source word's xBase. So the surviving
// word-final tokens are ranked once per frame by score + xBase (they are
// collected in seq order and a newcomer goes behind its equals), and
// every word start merges its self loop with the head of that ranking,
// passing over the sources whose arc into it is an exception and taking
// those at their own weight. Only the head can matter: a word start takes
// at most k tokens and passes over at most maxExc sources of k each.
//
// A word's history node is made when a word start first takes the token,
// from the session's arena. Emission scores are added as a list is
// written, states no token can have reached are emptied rather than
// merged, and nothing is allocated once the arena has grown.
func (s *NBestSession) step(emit []float64) {
	sc := s.sc
	g := s.d.graph
	k := sc.k
	threshold := math.Inf(-1)
	if s.d.cfg.Beam > 0 {
		threshold = s.best - s.d.cfg.Beam
	}
	x := sc.x.rank[:0]
	for wi, st := range g.wordFinal {
		for r, tok := range survivors(sc.list(st), threshold) {
			sc.ended[wi*k+r] = nil
			x = pushRanked(x, xcand{score: tok.score + g.xBase[wi], seq: st*int32(k) + int32(r), word: int32(wi)}, sc.x.limit)
		}
	}
	best, bestState := math.Inf(-1), int32(-1)
	// written notes a finished list of n tokens for state st.
	written := func(st int32, n int) bool {
		sc.nnext[st] = int32(n)
		if n > 0 && sc.next[int(st)*k].score > best {
			best, bestState = sc.next[int(st)*k].score, st
		}
		return n > 0
	}
	for wj, ws := range g.wordStart {
		top := ws - 1
		if written(ws, s.enterWord(wj, x, threshold, emit[g.senones[ws]])) {
			top = ws
		}
		wf := g.wordFinal[wj]
		reach := min(sc.last[wj]+1, wf)
		adv := survivors(sc.list(ws), threshold)
		for st := ws + 1; st <= reach; st++ {
			self := survivors(sc.list(st), threshold)
			out := sc.next[int(st)*k:][:k]
			e := emit[g.senones[st]]
			n, i, j := 0, 0, 0
			for ; n < k; n++ {
				if i < len(adv) && !(j < len(self) && self[j].score+logSelf > adv[i].score+logNext) {
					out[n] = token{score: adv[i].score + logNext + e, hist: adv[i].hist}
					i++
				} else if j < len(self) {
					out[n] = token{score: self[j].score + logSelf + e, hist: self[j].hist}
					j++
				} else {
					break
				}
			}
			if written(st, n) {
				top = st
			}
			adv = self
		}
		clear(sc.nnext[reach+1 : wf+1])
		sc.last[wj] = top
	}
	sc.cur, sc.next = sc.next, sc.cur
	sc.ncur, sc.nnext = sc.nnext, sc.ncur
	s.best, s.bestState = best, bestState
}

// enterWord writes word wj's start-state list for the next frame from the
// state's self loop, the shared ranking x and the exception arcs into wj,
// adds the state's emission score e, and returns the list's length.
func (s *NBestSession) enterWord(wj int, x []xcand, threshold, e float64) int {
	sc := s.sc
	g := s.d.graph
	k := sc.k
	ws := g.wordStart[wj]
	out := sc.next[int(ws)*k:][:k]
	seqs := sc.startSeq
	n := 0
	for r, tok := range survivors(sc.list(ws), threshold) {
		out[n], seqs[n] = token{score: tok.score + logSelf, hist: tok.hist}, ws*int32(k)+int32(r)
		n++
	}
	// place is where a token with this score and seq belongs in the list:
	// k when the full list's last entry comes before it, and then every
	// token after it in a sorted source has no place either.
	place := func(score float64, seq int32) int {
		pos := n
		for pos > 0 && (score > out[pos-1].score || (score == out[pos-1].score && seq < seqs[pos-1])) {
			pos--
		}
		return pos
	}
	// put inserts the word-final token at seq, which ends word, at pos.
	put := func(pos int, score float64, seq, word int32) {
		if n < k {
			n++
		}
		copy(out[pos+1:n], out[pos:])
		copy(seqs[pos+1:n], seqs[pos:])
		node := &sc.ended[int(word)*k+int(seq-g.wordFinal[word]*int32(k))]
		if *node == nil {
			*node = sc.arena.alloc(word, sc.cur[seq].hist)
		}
		out[pos], seqs[pos] = token{score: score, hist: *node}, seq
	}
	sc.x.flag(g, wj)
	for _, c := range x {
		pos := place(c.score, c.seq)
		if pos == k {
			break
		}
		if sc.x.mark[c.word] != int32(wj)+1 {
			put(pos, c.score, c.seq, c.word)
		}
	}
	for _, exc := range g.xExc[wj] {
		st := g.wordFinal[exc.from]
		for r, tok := range survivors(sc.list(st), threshold) {
			score, seq := tok.score+exc.weight, st*int32(k)+int32(r)
			pos := place(score, seq)
			if pos == k {
				break
			}
			put(pos, score, seq, exc.from)
		}
	}
	for i := range out[:n] {
		out[i].score += e
	}
	return n
}

// selectNBest collects the word-final hypotheses from the surviving token
// lists, deduped by word sequence (keeping the best score per sequence),
// and returns the n best, best first. Equal scores keep the order they
// were found in, which is state order, so a tie goes to the lower state
// as it does inside the search.
func selectNBest(g *Graph, list func(st int32) []token, n, frames int) []Result {
	seen := map[string]int{}
	var hyps []Result
	add := func(words []string, score float64) {
		key := strings.Join(words, " ")
		if idx, ok := seen[key]; ok {
			hyps[idx].Score = max(hyps[idx].Score, score)
			return
		}
		seen[key] = len(hyps)
		hyps = append(hyps, Result{Words: words, Score: score, Frames: frames})
	}
	for wi, st := range g.wordFinal {
		for _, tok := range list(st) {
			add(historyWords(g, &histNode{word: int32(wi), prev: tok.hist}), tok.score)
		}
	}
	if len(hyps) == 0 {
		// No token ended on a word-final state (aggressive beam or an
		// utterance cut mid-word): fall back to every surviving token's
		// completed-word history.
		for st := range g.senones {
			for _, tok := range list(int32(st)) {
				add(historyWords(g, tok.hist), tok.score)
			}
		}
	}
	sort.SliceStable(hyps, func(i, j int) bool { return hyps[i].Score > hyps[j].Score })
	return hyps[:min(n, len(hyps))]
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
