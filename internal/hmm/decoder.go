package hmm

import (
	"context"
	"fmt"
	"math"
	"sync"
)

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
// The search reads only these tables, which lets it rank the word-final
// tokens once per frame for every word start instead of sending each down
// V arcs.
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
}

// DefaultConfig returns decoding parameters tuned for the synthetic
// task.
func DefaultConfig() Config {
	return Config{Beam: 200, WordPenalty: -2, LMWeight: 2}
}

// CompileGraph builds the decoding network from a lexicon and LM.
func CompileGraph(lex *Lexicon, lm *Bigram, cfg Config) (*Graph, error) {
	g := &Graph{lex: lex, phoneIdx: map[string]int{}}
	g.phones = lex.PhoneSet()
	for i, p := range g.phones {
		g.phoneIdx[p] = i
	}
	g.wordStart = make([]int32, lex.size())
	g.startProbs = make([]float64, lex.size())
	g.wordFinal = make([]int32, lex.size())
	// Lay out states word by word.
	for wi, word := range lex.words {
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
		g.startProbs[wi] = cfg.LMWeight * lm.logProb(-1, wi)
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
			w := logNext + cfg.LMWeight*lm.logProb(wi, wj) + cfg.WordPenalty
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

// numStates returns the size of the compiled graph.
func (g *Graph) numStates() int { return len(g.senones) }

// Phones returns the ordered phone set the senones index into.
func (g *Graph) Phones() []string { return g.phones }

// histNode is a shared immutable word-history backpointer.
type histNode struct {
	word int32
	prev *histNode
}

// Result is a decoding outcome.
type Result struct {
	Words  []string
	Score  float64 // total log score of the best path
	Frames int
}

// histSlabSize is the node count of one arena slab.
const histSlabSize = 1024

// histArena bump-allocates histNodes from reusable slabs so the frame
// loop's word-boundary backpointers cost no heap allocations in steady
// state. reset recycles every node while keeping the slabs, so nodes
// must not be referenced across a reset (Finish extracts its word
// sequences before the scratch goes back to the pool).
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

// xScratch is the search's per-frame cross-word work area.
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

// Decoder runs Viterbi beam search over a compiled graph. It holds no
// search state of its own: every session takes its scratch from a pool on
// the graph, so a Decoder is as safe for concurrent sessions as its Scorer
// is, and building one per recognition costs nothing.
type Decoder struct {
	graph  *Graph
	scorer Scorer
	cfg    Config
}

// NewDecoder pairs a graph with an acoustic scorer.
func NewDecoder(g *Graph, scorer Scorer, cfg Config) (*Decoder, error) {
	need := len(g.phones) * StatesPerPhone
	if scorer.NumSenones() < need {
		return nil, fmt.Errorf("hmm: scorer has %d senones, graph needs %d", scorer.NumSenones(), need)
	}
	return &Decoder{graph: g, scorer: scorer, cfg: cfg}, nil
}

// ctxCheckInterval is how many frames the search advances between
// context checks: frequent enough that an expired deadline releases the
// core within a handful of frames' work, rare enough that the check is
// invisible next to arc relaxation.
const ctxCheckInterval = 8
