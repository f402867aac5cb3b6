// Package hmm implements the speech-decoder substrate of Sirius' ASR
// service (paper §2.3.1, Figure 4): phone HMMs, a pronunciation lexicon, a
// bigram language model, and a token-passing Viterbi beam-search decoder.
// The acoustic scorer (GMM or DNN) is injected through the Scorer
// interface, which is exactly the paper's HMM/GMM vs HMM/DNN split.
package hmm

import (
	"fmt"
	"sort"
	"strings"
)

// StatesPerPhone is the number of emitting states in each left-to-right
// phone HMM (the classic 3-state topology).
const StatesPerPhone = 3

// Lexicon maps words to phone sequences. Pronunciations not added
// explicitly are derived with a deterministic grapheme-to-phoneme rule set
// (the synthesizer uses the same lexicon, so recognition only requires the
// mapping to be consistent and discriminable, not phonetically perfect).
type Lexicon struct {
	words   []string
	prons   map[string][]string
	indexOf map[string]int
}

// NewLexicon returns an empty lexicon.
func NewLexicon() *Lexicon {
	return &Lexicon{prons: make(map[string][]string), indexOf: make(map[string]int)}
}

// SilenceWord is the pseudo-word that models silence in the decoding
// graph. Recognizers filter it from their text output.
const SilenceWord = "<sil>"

// silencePhone is SilenceWord's one phone, and the optional tail that
// CompileGraph gives every other word of a lexicon holding SilenceWord.
const silencePhone = "sil"

// AddSilence registers the silence pseudo-word, and with it a silence
// tail on every word of the decoding graph.
func (l *Lexicon) AddSilence() { l.add(SilenceWord, []string{silencePhone}) }

// add inserts a word with an explicit pronunciation; it replaces any
// previous pronunciation. Words are case-folded.
func (l *Lexicon) add(word string, phones []string) {
	word = strings.ToLower(word)
	if _, ok := l.indexOf[word]; !ok {
		l.indexOf[word] = len(l.words)
		l.words = append(l.words, word)
	}
	l.prons[word] = phones
}

// AddWords inserts words using g2p pronunciations.
func (l *Lexicon) AddWords(words ...string) {
	for _, w := range words {
		l.add(w, g2p(w))
	}
}

// size returns the vocabulary size.
func (l *Lexicon) size() int { return len(l.words) }

// index returns the index of word, or -1 if out of vocabulary.
func (l *Lexicon) index(word string) int {
	if i, ok := l.indexOf[strings.ToLower(word)]; ok {
		return i
	}
	return -1
}

// Pron returns the pronunciation of word.
func (l *Lexicon) Pron(word string) ([]string, error) {
	p, ok := l.prons[strings.ToLower(word)]
	if !ok {
		return nil, fmt.Errorf("hmm: word %q not in lexicon", word)
	}
	return p, nil
}

// g2pDigraphs are matched greedily before single letters.
var g2pDigraphs = map[string]string{
	"sh": "sh", "ch": "sh", "th": "f", "ph": "f", "wh": "w",
	"oo": "uw", "ee": "iy", "ea": "iy", "ou": "ow", "ai": "eh", "ay": "eh",
}

// g2pLetters maps single letters to inventory phones.
var g2pLetters = map[byte]string{
	'a': "aa", 'e': "eh", 'i': "iy", 'o': "ow", 'u': "uw", 'y': "iy",
	'b': "p", 'p': "p", 'c': "k", 'k': "k", 'q': "k", 'g': "k",
	'd': "d", 't': "t", 'f': "f", 'v': "v", 'w': "w",
	's': "s", 'x': "s", 'z': "z", 'j': "sh",
	'm': "m", 'n': "n", 'l': "l", 'r': "r", 'h': "ah",
}

// g2p converts a word to a phone sequence with simple greedy
// letter/digraph rules over the audio package's phone inventory.
func g2p(word string) []string {
	word = strings.ToLower(word)
	var phones []string
	for i := 0; i < len(word); {
		if i+1 < len(word) {
			if p, ok := g2pDigraphs[word[i:i+2]]; ok {
				phones = append(phones, p)
				i += 2
				continue
			}
			// Collapse doubled letters.
			if word[i] == word[i+1] {
				i++
				continue
			}
		}
		if p, ok := g2pLetters[word[i]]; ok {
			phones = append(phones, p)
		}
		i++
	}
	if len(phones) == 0 {
		phones = []string{"ah"}
	}
	return phones
}

// PhoneSet returns the sorted set of distinct phones used by the lexicon.
func (l *Lexicon) PhoneSet() []string {
	set := map[string]bool{}
	for _, p := range l.prons {
		for _, ph := range p {
			set[ph] = true
		}
	}
	out := make([]string, 0, len(set))
	for ph := range set {
		out = append(out, ph)
	}
	sort.Strings(out)
	return out
}
