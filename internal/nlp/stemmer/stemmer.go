// Package stemmer implements the Porter stemming algorithm (Porter 1980),
// the word-normalization hot component of Sirius' question-answering
// service and the Stemmer kernel of Sirius Suite (paper §2.3.3, §4.4.2).
//
// This is the full classic algorithm — steps 1a through 5b with the
// measure function m() over vowel-consonant runs — implemented directly
// from the paper's rules rather than ported from an existing library.
// StemAll is the Suite kernel: one function of a width, whose width 1 is
// the single-threaded baseline and any other width the multicore port.
package stemmer

import "sirius/internal/mat"

// Stem returns the Porter stem of word. Input is expected to be lower
// case; words shorter than 3 letters are returned unchanged, as in the
// reference implementation.
//
// No step lengthens the word, so the steps rewrite a copy of it in place:
// on the stack for a word of up to 32 bytes, on the heap beyond. A stem
// that is a prefix of the word, as most are, is returned as a slice of
// word, so that case allocates nothing.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	var buf [32]byte
	var b []byte
	if len(word) <= len(buf) {
		b = buf[:copy(buf[:], word)]
	} else {
		b = []byte(word)
	}
	b = step1a(b)
	b = step1b(b)
	b = step1c(b)
	b = step2(b)
	b = step3(b)
	b = step4(b)
	b = step5a(b)
	b = step5b(b)
	if string(b) == word[:len(b)] {
		return word[:len(b)]
	}
	return string(b)
}

// isConsonant reports whether b[i] acts as a consonant at position i.
// 'y' is a consonant when preceded by a vowel position (per Porter).
func isConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(b, i-1)
	default:
		return true
	}
}

// measure computes m(), the number of VC sequences in b: the number of
// consonants that follow a vowel, in one pass that carries the previous
// letter's kind forward for 'y'.
func measure(b []byte) int {
	n := 0
	prevCons := false
	for i, c := range b {
		var cons bool
		switch c {
		case 'a', 'e', 'i', 'o', 'u':
			cons = false
		case 'y':
			cons = i == 0 || !prevCons
		default:
			cons = true
		}
		if cons && !prevCons && i > 0 {
			n++
		}
		prevCons = cons
	}
	return n
}

// hasVowel reports whether the stem contains a vowel.
func hasVowel(b []byte) bool {
	for i := range b {
		if !isConsonant(b, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether b ends with a doubled consonant.
func endsDoubleConsonant(b []byte) bool {
	n := len(b)
	return n >= 2 && b[n-1] == b[n-2] && isConsonant(b, n-1)
}

// endsCVC reports whether b ends consonant-vowel-consonant where the
// final consonant is not w, x or y (the *o condition in Porter's paper).
func endsCVC(b []byte) bool {
	n := len(b)
	if n < 3 {
		return false
	}
	if !isConsonant(b, n-3) || isConsonant(b, n-2) || !isConsonant(b, n-1) {
		return false
	}
	switch b[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix compares from the last byte back, where words differ most.
func hasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	b = b[len(b)-len(s):]
	for i := len(s) - 1; i >= 0; i-- {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// replaceIfM replaces suffix with repl when the stem before the suffix
// has measure > m. Returns the (possibly new) slice and whether the
// suffix matched (regardless of the measure test firing).
func replaceIfM(b []byte, suffix, repl string, m int) ([]byte, bool) {
	if !hasSuffix(b, suffix) {
		return b, false
	}
	stem := b[:len(b)-len(suffix)]
	if measure(stem) > m {
		return append(stem, repl...), true
	}
	return b, true
}

func step1a(b []byte) []byte {
	switch {
	case hasSuffix(b, "sses"):
		return b[:len(b)-2]
	case hasSuffix(b, "ies"):
		return b[:len(b)-2]
	case hasSuffix(b, "ss"):
		return b
	case hasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func step1b(b []byte) []byte {
	if hasSuffix(b, "eed") {
		if measure(b[:len(b)-3]) > 0 {
			return b[:len(b)-1]
		}
		return b
	}
	var stem []byte
	switch {
	case hasSuffix(b, "ed") && hasVowel(b[:len(b)-2]):
		stem = b[:len(b)-2]
	case hasSuffix(b, "ing") && hasVowel(b[:len(b)-3]):
		stem = b[:len(b)-3]
	default:
		return b
	}
	// Cleanup after removing -ed / -ing.
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem) && !hasSuffix(stem, "l") && !hasSuffix(stem, "s") && !hasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(b []byte) []byte {
	if hasSuffix(b, "y") && hasVowel(b[:len(b)-1]) {
		b[len(b)-1] = 'i'
	}
	return b
}

type rule struct{ suffix, repl string }

// byPenultimate groups rules by the second-to-last letter of their suffix,
// as the switch on b[k-1] does in Porter's reference C: only the group of
// a word's own second-to-last letter can match it. Each group keeps table
// order, so the first rule to match is the one the whole table gives.
// Every suffix in steps 2 to 4 is at least two letters long.
func byPenultimate(rules []rule) (g [256][]rule) {
	for _, r := range rules {
		c := r.suffix[len(r.suffix)-2]
		g[c] = append(g[c], r)
	}
	return g
}

// group returns the rules of g that can match b.
func group(g *[256][]rule, b []byte) []rule {
	if len(b) < 2 {
		return nil
	}
	return g[b[len(b)-2]]
}

var step2Rules = byPenultimate([]rule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
})

func step2(b []byte) []byte {
	for _, r := range group(&step2Rules, b) {
		if b2, matched := replaceIfM(b, r.suffix, r.repl, 0); matched {
			return b2
		}
	}
	return b
}

var step3Rules = byPenultimate([]rule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
})

func step3(b []byte) []byte {
	for _, r := range group(&step3Rules, b) {
		if b2, matched := replaceIfM(b, r.suffix, r.repl, 0); matched {
			return b2
		}
	}
	return b
}

// step4Rules hold suffixes only: step 4 deletes what it matches.
var step4Rules = byPenultimate([]rule{
	{"al", ""}, {"ance", ""}, {"ence", ""}, {"er", ""}, {"ic", ""}, {"able", ""},
	{"ible", ""}, {"ant", ""}, {"ement", ""}, {"ment", ""}, {"ent", ""},
	{"ion", ""}, {"ou", ""}, {"ism", ""}, {"ate", ""}, {"iti", ""},
	{"ous", ""}, {"ive", ""}, {"ize", ""},
})

func step4(b []byte) []byte {
	for _, r := range group(&step4Rules, b) {
		s := r.suffix
		if !hasSuffix(b, s) {
			continue
		}
		stem := b[:len(b)-len(s)]
		if measure(stem) <= 1 {
			return b
		}
		// -ion only drops after s or t.
		if s == "ion" && len(stem) > 0 && stem[len(stem)-1] != 's' && stem[len(stem)-1] != 't' {
			return b
		}
		return stem
	}
	return b
}

func step5a(b []byte) []byte {
	if !hasSuffix(b, "e") {
		return b
	}
	stem := b[:len(b)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return b
}

// step5b tests the cheap suffix before the measure; "ll" is itself the
// double consonant the rule asks for.
func step5b(b []byte) []byte {
	if hasSuffix(b, "ll") && measure(b) > 1 {
		return b[:len(b)-1]
	}
	return b
}

// StemAll stems every word in words into a new slice: the Suite stemmer
// kernel over its 4M-word input list (Table 4). Contiguous word ranges
// ("for each individual word") run on the shared mat worker pool at the
// given width with a single join at the end, mirroring the paper's
// Pthread port; width 1 is the single-threaded baseline and <= 0 the
// pool's width.
func StemAll(words []string, width int) []string {
	out := make([]string, len(words))
	mat.ParallelWidth(width, len(words), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Stem(words[i])
		}
	})
	return out
}
