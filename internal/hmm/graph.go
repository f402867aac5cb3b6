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
// When the lexicon holds SilenceWord, every other word's phone states are
// followed by the three states of phone sil in the same run, so a word
// ends either before its silence tail or after it: it has two exits, its
// last phone state (the bare exit) and the tail's last state (the tail
// exit). The synthesizer puts a pause after every word, and with the tail
// the pause belongs to the word before it, so the bigram weighs word to
// word, not <sil> to word. SilenceWord itself stays an ordinary word, the
// utterance's leading silence; a lexicon without it compiles with one
// exit per word. A word's exits follow from its final state (exits).
//
// Inside a word the arcs are implicit: every state loops on itself
// (logSelf) and every state but the word's last advances to the next
// (logNext). The cross-word arcs, from each exit to every word's start
// state, are held factored: they carry their source word's weights, and
// under a smoothed bigram nearly all arcs out of a word weigh the same,
// so xBase keeps that one weight per source word and xExc, per target
// word, the few sources that differ. The search reads only these tables,
// which lets it rank the words' exit tokens once per frame for every word
// start instead of sending each down V arcs.
type Graph struct {
	cfg        Config // the settings it was compiled under; the search reads Beam
	lex        *Lexicon
	phones     []string
	phoneIdx   map[string]int
	senones    []int32 // per state
	wordStart  []int32
	wordFinal  []int32   // per word: its last state, the tail's when it has one
	silence    int32     // SilenceWord's index, the one word without a tail; -1 when no word has one
	startProbs []float64 // log P(word | <s>), indexed by word

	xBase  []float64 // per source word: the weight most of its cross-word arcs carry, copied from one of them
	xExc   [][]xarc  // per target word: the arcs into it that weigh otherwise, sources ascending
	maxExc int       // the longest xExc list

	pool sync.Pool // *scratch, reused across sessions on this graph
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
	g := &Graph{cfg: cfg, lex: lex, phoneIdx: map[string]int{}, silence: int32(lex.index(SilenceWord))}
	g.phones = lex.PhoneSet()
	for i, p := range g.phones {
		g.phoneIdx[p] = i
	}
	v := lex.size()
	g.wordStart = make([]int32, v)
	g.startProbs = make([]float64, v)
	g.wordFinal = make([]int32, v)
	// Lay out states word by word, each phone's states in turn and then
	// the silence tail's.
	for wi, word := range lex.words {
		phones, err := lex.Pron(word)
		if err != nil {
			return nil, err
		}
		if len(phones) == 0 {
			return nil, fmt.Errorf("hmm: empty pronunciation for %q", word)
		}
		if g.silence >= 0 && int32(wi) != g.silence {
			phones = append(phones[:len(phones):len(phones)], silencePhone)
		}
		g.wordStart[wi] = int32(len(g.senones))
		for _, ph := range phones {
			pi, ok := g.phoneIdx[ph]
			if !ok {
				return nil, fmt.Errorf("hmm: phone %q missing from phone set", ph)
			}
			for s := 0; s < StatesPerPhone; s++ {
				g.senones = append(g.senones, int32(pi*StatesPerPhone+s))
			}
		}
		g.wordFinal[wi] = int32(len(g.senones) - 1)
		g.startProbs[wi] = cfg.LMWeight * lm.logProb(-1, wi)
	}
	g.factorCrossWord(lm, cfg)
	return g, nil
}

// exits returns word wi's two exits, the states its cross-word arcs leave
// from: its last phone state (bare) and its silence tail's last state
// (tail). A word without a tail has one exit, returned as both.
func (g *Graph) exits(wi int) (bare, tail int32) {
	tail = g.wordFinal[wi]
	if g.silence >= 0 && int32(wi) != g.silence {
		return tail - StatesPerPhone, tail
	}
	return tail, tail
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
// sequence before the scratch goes back to the pool).
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

// xcand is a word's exit token about to cross a word boundary, as the
// frame's shared ranking holds it.
type xcand struct {
	score float64 // the token's score plus its word's xBase
	seq   int32   // the token's state: a tie goes to the lower
	word  int32   // the word it ends
}

// beats reports whether c goes before b: a better score, or an equal one
// from a lower state.
func (c xcand) beats(b xcand) bool {
	return c.score > b.score || (c.score == b.score && c.seq < b.seq)
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

// prepare sizes the area for g. The ranking holds one candidate per word,
// and a word start takes one and passes over at most maxExc source words,
// so the best 1+maxExc candidates serve every word start.
func (xs *xScratch) prepare(g *Graph) {
	v := len(g.wordStart)
	xs.limit = min(1+g.maxExc, v)
	xs.rank = make([]xcand, 0, xs.limit)
	xs.mark = make([]int32, v)
}

// flag marks the sources of wj's exception arcs, so that a walk down the
// shared ranking can tell them by `mark[word] == wj+1`. Marks need no
// clearing: a stale one can only say what flag would say again.
func (xs *xScratch) flag(g *Graph, wj int) {
	for _, e := range g.xExc[wj] {
		xs.mark[e.from] = int32(wj) + 1
	}
}

// ctxCheckInterval is how many frames the search advances between
// context checks: frequent enough that an expired deadline releases the
// core within a handful of frames' work, rare enough that the check is
// invisible next to arc relaxation.
const ctxCheckInterval = 8
