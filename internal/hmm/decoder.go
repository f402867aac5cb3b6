package hmm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"sirius/internal/mat"
)

// decodeTime records per-utterance Viterbi wall time on the shared
// kernel histogram (sirius_kernel_seconds{kernel="viterbi_decode"}).
var decodeTime = mat.KernelTimer("viterbi_decode")

// Scorer is the one seam between the search and acoustic scoring,
// mirroring Figure 4 of the paper where "GMM scoring or DNN scoring" plugs
// into the same Viterbi search: a block of feature frames goes in, one row
// of senone log-likelihoods per frame comes out. A block is the unit the
// paper's Suite kernels parallelize ("for each matrix multiplication",
// Table 4) and the unit the batch scheduler coalesces across requests; a
// single frame is a block of one. internal/asr's scorer implements it for
// both engines and both precisions.
type Scorer interface {
	// Score returns one row per frame, in order, each indexed by the
	// graph's senone numbering and at least NumSenones long. The search
	// reads the rows in place, never writes them, and is done with them
	// before it calls Score again. Rows must not depend on how an
	// utterance is cut into blocks. A nil return means ctx was
	// canceled before the block was scored; any other row count is a
	// scorer fault that Advance reports as an error.
	Score(ctx context.Context, frames [][]float64) [][]float64
	// NumSenones returns the senone count (phones * StatesPerPhone).
	NumSenones() int
}

// Transition log-probabilities for the 3-state left-to-right phone HMM.
var (
	logSelf = math.Log(0.6)
	logNext = math.Log(0.4)
)

// xarc is one cross-word arc that does not carry its source word's common
// weight.
type xarc struct {
	from   int32 // source word
	weight float64
}

// Graph is the compiled decoding network: every word expanded into its
// chain of phone states, fully connected word-to-word through the bigram
// LM.
//
// Inside a word the arcs are implicit: every state loops on itself
// (logSelf) and every state but the word's last advances to the next
// (logNext). The V*V cross-word arcs, each from a word's final state to a
// word's start state, are held factored: under a smoothed bigram nearly
// all arcs out of a word weigh the same, so xBase keeps that one weight
// per source word and xExc, per target word, the few sources that differ.
// Both searches read only these tables, which lets them rank the
// word-final tokens once per frame for every word start instead of
// sending each down V arcs.
type Graph struct {
	lex        *Lexicon
	phones     []string
	phoneIdx   map[string]int
	senones    []int32 // per state
	wordEnd    []int32 // word index if state is word-final, else -1
	wordStart  []int32
	wordFinal  []int32
	startProbs []float64 // log P(word | <s>), indexed by word

	xBase  []float64 // per source word: the weight most of its cross-word arcs carry, copied from one of them
	xExc   [][]xarc  // per target word: the arcs into it that weigh otherwise, sources ascending
	maxExc int       // the longest xExc list

	nbestPool sync.Pool // *nbestScratch, reused across n-best sessions on this graph
}

// Config tunes graph compilation and decoding.
type Config struct {
	Beam        float64 // log-domain beam width; <=0 means no pruning
	WordPenalty float64 // word insertion penalty (log, typically negative)
	LMWeight    float64 // language model scale factor
	// MaxActive, when > 0, layers histogram pruning over the beam of the
	// 1-best search: if more than MaxActive states survive the beam in a
	// frame, the threshold is tightened to keep roughly the best
	// MaxActive (Sphinx-style max-active pruning), bounding per-frame
	// work on large graphs independent of how flat the score
	// distribution is. The n-best search ignores it.
	MaxActive int
}

// DefaultConfig returns decoding parameters tuned for the synthetic
// task. MaxActive bounds the 1-best search only (Decode, Session) and is
// generous: on this repo's graphs it engages when the beam degenerates,
// so results match pure beam search. The n-best search that recognizers
// with rescoring run (NBestSession, the served path) prunes by Beam
// alone.
func DefaultConfig() Config {
	return Config{Beam: 200, WordPenalty: -2, LMWeight: 2, MaxActive: 2048}
}

// CompileGraph builds the decoding network from a lexicon and LM.
func CompileGraph(lex *Lexicon, lm *Bigram, cfg Config) (*Graph, error) {
	g := &Graph{lex: lex, phoneIdx: map[string]int{}}
	g.phones = lex.PhoneSet()
	for i, p := range g.phones {
		g.phoneIdx[p] = i
	}
	g.wordStart = make([]int32, lex.Size())
	g.startProbs = make([]float64, lex.Size())
	g.wordFinal = make([]int32, lex.Size())
	// Lay out states word by word.
	for wi, word := range lex.Words() {
		phones, err := lex.Pron(word)
		if err != nil {
			return nil, err
		}
		if len(phones) == 0 {
			return nil, fmt.Errorf("hmm: empty pronunciation for %q", word)
		}
		g.wordStart[wi] = int32(len(g.senones))
		for _, ph := range phones {
			pi, ok := g.phoneIdx[ph]
			if !ok {
				return nil, fmt.Errorf("hmm: phone %q missing from phone set", ph)
			}
			for s := 0; s < StatesPerPhone; s++ {
				g.senones = append(g.senones, int32(pi*StatesPerPhone+s))
				g.wordEnd = append(g.wordEnd, -1)
			}
		}
		last := int32(len(g.senones) - 1)
		g.wordFinal[wi] = last
		g.wordEnd[last] = int32(wi)
		g.startProbs[wi] = cfg.LMWeight * lm.LogProb(-1, wi)
	}
	g.factorCrossWord(lm, cfg)
	return g, nil
}

// factorCrossWord computes every cross-word arc weight and stores it as
// xBase plus xExc. Weights are told apart by their bits and the base is
// one of the arc weights themselves, so a search adding xBase[wi] or an
// exception's weight adds exactly what the arc would have carried,
// whatever the LM.
func (g *Graph) factorCrossWord(lm *Bigram, cfg Config) {
	v := len(g.wordStart)
	g.xBase = make([]float64, v)
	g.xExc = make([][]xarc, v)
	weights := make([]float64, v)
	count := make(map[uint64]int, v)
	for wi := 0; wi < v; wi++ {
		clear(count)
		most := 0
		for wj := range weights {
			w := logNext + cfg.LMWeight*lm.LogProb(wi, wj) + cfg.WordPenalty
			weights[wj] = w
			bits := math.Float64bits(w)
			count[bits]++
			if count[bits] > most {
				most, g.xBase[wi] = count[bits], w
			}
		}
		base := math.Float64bits(g.xBase[wi])
		for wj, w := range weights {
			if math.Float64bits(w) != base {
				g.xExc[wj] = append(g.xExc[wj], xarc{from: int32(wi), weight: w})
			}
		}
	}
	for _, exc := range g.xExc {
		g.maxExc = max(g.maxExc, len(exc))
	}
}

// NumStates returns the size of the compiled graph.
func (g *Graph) NumStates() int { return len(g.senones) }

// Phones returns the ordered phone set the senones index into.
func (g *Graph) Phones() []string { return g.phones }

// histNode is a shared immutable word-history backpointer.
type histNode struct {
	word int32
	prev *histNode
}

// Result is a decoding outcome.
type Result struct {
	Words     []string
	Score     float64 // total log score of the best path
	Frames    int
	AvgActive float64 // mean number of active states per frame (beam effect)
	// Confidence is a per-frame-normalized margin between the best
	// word-final hypothesis and the runner-up ending in a different word
	// (0 = tie, larger = more certain). RunnerUp names that competitor.
	Confidence float64
	RunnerUp   string
}

// histSlabSize is the node count of one arena slab.
const histSlabSize = 1024

// histArena bump-allocates histNodes from reusable slabs so the frame
// loop's word-boundary backpointers cost no heap allocations in steady
// state. reset recycles every node while keeping the slabs, so nodes
// must not be referenced across a reset (Decode extracts its word
// sequence before returning).
type histArena struct {
	slabs [][]histNode
	slab  int // slab currently allocating from
	used  int // nodes handed out of that slab
}

func (a *histArena) reset() { a.slab, a.used = 0, 0 }

func (a *histArena) alloc(word int32, prev *histNode) *histNode {
	if a.slab < len(a.slabs) && a.used == histSlabSize {
		a.slab++
		a.used = 0
	}
	if a.slab >= len(a.slabs) {
		a.slabs = append(a.slabs, make([]histNode, histSlabSize))
	}
	n := &a.slabs[a.slab][a.used]
	a.used++
	n.word, n.prev = word, prev
	return n
}

// histBins is the resolution of the histogram-pruning score buckets.
const histBins = 128

// xcand is a word-final token about to cross a word boundary, as the
// frame's shared ranking holds it.
type xcand struct {
	score float64 // the token's score plus its word's xBase
	seq   int32   // the token's place: its state times k plus its rank there
	word  int32   // the word it ends
}

// pushRanked puts c into x, the best-first ranking of at most limit
// candidates. Candidates are offered in seq order, so c goes behind the
// entries it ties with, and one that the full ranking's last entry beats
// or ties is turned away.
func pushRanked(x []xcand, c xcand, limit int) []xcand {
	if len(x) < limit {
		x = x[:len(x)+1]
	} else if !(c.score > x[len(x)-1].score) {
		return x
	}
	kept := len(x) - 1
	lo, hi := 0, kept
	for lo < hi {
		if mid := (lo + hi) / 2; x[mid].score < c.score {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(x[lo+1:], x[lo:kept])
	x[lo] = c
	return x
}

// xScratch is the per-frame cross-word work area both searches keep.
type xScratch struct {
	rank  []xcand // head of the shared ranking
	limit int     // how long it may get: no word start can need more
	mark  []int32 // per source word: 1 + the target it was last flagged an exception of
}

// prepare sizes the area for k tokens per state on g. A word start takes
// at most k tokens and passes over at most maxExc sources of k tokens
// each, so the best k*(1+maxExc) candidates serve every word start.
func (xs *xScratch) prepare(g *Graph, k int) {
	v := len(g.wordStart)
	xs.limit = k * min(1+g.maxExc, v)
	if cap(xs.rank) < xs.limit {
		xs.rank = make([]xcand, 0, xs.limit)
	}
	if len(xs.mark) != v {
		xs.mark = make([]int32, v)
	}
}

// flag marks the sources of wj's exception arcs, so that a walk down the
// shared ranking can tell them by `mark[word] == wj+1`. Marks need no
// clearing: a stale one can only say what flag would say again.
func (xs *xScratch) flag(g *Graph, wj int) {
	for _, e := range g.xExc[wj] {
		xs.mark[e.from] = int32(wj) + 1
	}
}

// decodeScratch is the decoder-owned reusable state of Decode: token
// score and history arrays (swapped, not reallocated, across frames and
// utterances), the pruning histogram, the cross-word work area, and the
// backpointer arena.
type decodeScratch struct {
	cur, next         []float64
	curHist, nextHist []*histNode
	bins              []int
	x                 xScratch
	arena             histArena
}

// prepare sizes the scratch for a graph and recycles the arena.
func (sc *decodeScratch) prepare(g *Graph) {
	states := g.NumStates()
	sc.x.prepare(g, 1)
	if cap(sc.cur) < states {
		sc.cur = make([]float64, states)
		sc.next = make([]float64, states)
		sc.curHist = make([]*histNode, states)
		sc.nextHist = make([]*histNode, states)
	}
	sc.cur = sc.cur[:states]
	sc.next = sc.next[:states]
	sc.curHist = sc.curHist[:states]
	sc.nextHist = sc.nextHist[:states]
	if sc.bins == nil {
		sc.bins = make([]int, histBins)
	}
	sc.arena.reset()
}

// Decoder runs Viterbi beam search over a compiled graph. A Decoder
// owns reusable decoding scratch and is NOT safe for concurrent use;
// concurrent recognitions each build their own (they are cheap — the
// scratch is allocated lazily on first Decode and reused after).
type Decoder struct {
	graph  *Graph
	scorer Scorer
	cfg    Config
	sc     decodeScratch
}

// NewDecoder pairs a graph with an acoustic scorer.
func NewDecoder(g *Graph, scorer Scorer, cfg Config) (*Decoder, error) {
	need := len(g.phones) * StatesPerPhone
	if scorer.NumSenones() < need {
		return nil, fmt.Errorf("hmm: scorer has %d senones, graph needs %d", scorer.NumSenones(), need)
	}
	return &Decoder{graph: g, scorer: scorer, cfg: cfg}, nil
}

// ctxCheckInterval is how many frames the decode loops advance between
// context checks: frequent enough that an expired deadline releases the
// core within a handful of frames' work, rare enough that the check is
// invisible next to arc relaxation.
const ctxCheckInterval = 8

// Decode runs the full Viterbi search over a feature-frame sequence and
// returns the best word sequence. Steady state the search allocates
// nothing: token arrays and word-history nodes come from decoder-owned
// scratch reused across frames and utterances, and emission rows are read
// where the scorer left them.
func (d *Decoder) Decode(frames [][]float64) Result {
	res, _ := d.DecodeContext(context.Background(), frames)
	return res
}

// DecodeContext is Decode with cancellation: the frame loop checks ctx
// every ctxCheckInterval frames (and immediately after acoustic scoring,
// which a canceled request cuts short) and returns ctx.Err() with a zero
// Result, so an expired or canceled query releases its core mid-utterance
// instead of decoding to the end. It is one Session advanced over the
// whole utterance, so the one-shot and streaming paths share the search
// verbatim.
func (d *Decoder) DecodeContext(ctx context.Context, frames [][]float64) (Result, error) {
	s := d.NewSession()
	if err := s.Advance(ctx, frames); err != nil {
		return Result{}, err
	}
	return s.Result(), nil
}

// step advances the token buffers one frame against the emission scores
// in emit. Every state takes the best arrival over its incoming arcs, a
// tie going to the lower source state: inside a word that is the advance
// from the state before against the self loop; a word start takes its
// self loop, the best word-final token that reaches it at its word's
// common weight (the head of one ranking made per frame for all word
// starts, passing over the sources whose arc into this word weighs
// otherwise), or one of those exceptions at its own weight. It allocates
// nothing in steady state: scores and histories live on the decoder
// scratch and word-boundary backpointers come from the slab arena.
// Returns the number of active states after the frame.
func (d *Decoder) step(emit []float64) int {
	sc := &d.sc
	g := d.graph
	cur, next := sc.cur, sc.next
	curHist, nextHist := sc.curHist, sc.nextHist
	best := math.Inf(-1)
	for _, v := range cur {
		if v > best {
			best = v
		}
	}
	threshold := math.Inf(-1)
	if d.cfg.Beam > 0 {
		threshold = best - d.cfg.Beam
	}
	if d.cfg.MaxActive > 0 {
		if ht := histogramThreshold(cur, best, d.cfg.Beam, d.cfg.MaxActive, sc.bins); ht > threshold {
			threshold = ht
		}
	}
	live := func(v float64) bool { return !(v < threshold || math.IsInf(v, -1)) }
	x := sc.x.rank[:0]
	for wi, st := range g.wordFinal {
		if v := cur[st]; live(v) {
			x = pushRanked(x, xcand{score: v + g.xBase[wi], seq: st, word: int32(wi)}, sc.x.limit)
		}
	}
	active := 0
	for wj, ws := range g.wordStart {
		// The word start: from is the winning source state, -1 for none.
		score, from := math.Inf(-1), int32(-1)
		offer := func(cand float64, src int32) {
			if from < 0 || cand > score || (cand == score && src < from) {
				score, from = cand, src
			}
		}
		if v := cur[ws]; live(v) {
			offer(v+logSelf, ws)
		}
		sc.x.flag(g, wj)
		for _, c := range x {
			if sc.x.mark[c.word] != int32(wj)+1 {
				offer(c.score, c.seq)
				break
			}
		}
		for _, e := range g.xExc[wj] {
			if st := g.wordFinal[e.from]; live(cur[st]) {
				offer(cur[st]+e.weight, st)
			}
		}
		switch {
		case from < 0:
			next[ws], nextHist[ws] = math.Inf(-1), nil
		case from == ws:
			next[ws], nextHist[ws] = score+emit[g.senones[ws]], curHist[ws]
			active++
		default:
			next[ws], nextHist[ws] = score+emit[g.senones[ws]], sc.arena.alloc(g.wordEnd[from], curHist[from])
			active++
		}
		// The states after it.
		for s := ws + 1; s <= g.wordFinal[wj]; s++ {
			adv, self := cur[s-1], cur[s]
			switch {
			case live(adv) && !(live(self) && self+logSelf > adv+logNext):
				next[s], nextHist[s] = adv+logNext+emit[g.senones[s]], curHist[s-1]
				active++
			case live(self):
				next[s], nextHist[s] = self+logSelf+emit[g.senones[s]], curHist[s]
				active++
			default:
				next[s], nextHist[s] = math.Inf(-1), nil
			}
		}
	}
	sc.cur, sc.next = next, cur
	sc.curHist, sc.nextHist = nextHist, curHist
	return active
}

// histogramThreshold implements Sphinx-style max-active pruning: active
// scores are bucketed by depth below the frame's best, and the depth
// that keeps roughly maxActive states becomes the pruning threshold.
// Buckets span the active set's score range (clamped to the beam when
// one is set — anything deeper is pruned by the beam regardless), so
// the resolution tracks the scores actually present. Returns -Inf when
// the active count is already within budget.
func histogramThreshold(cur []float64, best, beam float64, maxActive int, bins []int) float64 {
	if math.IsInf(best, -1) {
		return math.Inf(-1)
	}
	worst := best
	for _, v := range cur {
		if !math.IsInf(v, -1) && v < worst {
			worst = v
		}
	}
	width := best - worst
	if beam > 0 && beam < width {
		width = beam
	}
	if width <= 0 {
		return math.Inf(-1)
	}
	for i := range bins {
		bins[i] = 0
	}
	nb := len(bins)
	scale := float64(nb) / width
	active := 0
	for _, v := range cur {
		if math.IsInf(v, -1) {
			continue
		}
		active++
		idx := int((best - v) * scale)
		if idx >= nb {
			idx = nb - 1
		}
		if idx < 0 {
			idx = 0
		}
		bins[idx]++
	}
	if active <= maxActive {
		return math.Inf(-1)
	}
	kept := 0
	for i := 0; i < nb; i++ {
		kept += bins[i]
		if kept >= maxActive {
			// Keep every state at least this close to best.
			return best - float64(i+1)/scale
		}
	}
	return math.Inf(-1)
}

func countActive(scores []float64) int {
	n := 0
	for _, v := range scores {
		if !math.IsInf(v, -1) {
			n++
		}
	}
	return n
}
