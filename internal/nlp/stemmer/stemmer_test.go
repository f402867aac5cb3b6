package stemmer

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sirius/internal/kb"
	"sirius/internal/search"
)

// goldens are classic input/output pairs from Porter's paper and the
// reference implementation's vocabulary.
var goldens = map[string]string{
	// Step 1a
	"caresses": "caress",
	"ponies":   "poni",
	"caress":   "caress",
	"cats":     "cat",
	// Step 1b
	"feed":      "feed",
	"agreed":    "agre",
	"plastered": "plaster",
	"bled":      "bled",
	"motoring":  "motor",
	"sing":      "sing",
	"conflated": "conflat",
	"troubled":  "troubl",
	"sized":     "size",
	"hopping":   "hop",
	"tanned":    "tan",
	"falling":   "fall",
	"hissing":   "hiss",
	"fizzed":    "fizz",
	"failing":   "fail",
	"filing":    "file",
	// Step 1c
	"happy": "happi",
	"sky":   "sky",
	// Step 2
	"relational":     "relat",
	"conditional":    "condit",
	"rational":       "ration",
	"valenci":        "valenc",
	"hesitanci":      "hesit",
	"digitizer":      "digit",
	"conformabli":    "conform",
	"radicalli":      "radic",
	"differentli":    "differ",
	"vileli":         "vile",
	"analogousli":    "analog",
	"vietnamization": "vietnam",
	"predication":    "predic",
	"operator":       "oper",
	"feudalism":      "feudal",
	"decisiveness":   "decis",
	"hopefulness":    "hope",
	"callousness":    "callous",
	"formaliti":      "formal",
	"sensitiviti":    "sensit",
	"sensibiliti":    "sensibl",
	// Step 3
	"triplicate":  "triplic",
	"formative":   "form",
	"formalize":   "formal",
	"electriciti": "electr",
	"electrical":  "electr",
	"hopeful":     "hope",
	"goodness":    "good",
	// Step 4
	"revival":     "reviv",
	"allowance":   "allow",
	"inference":   "infer",
	"airliner":    "airlin",
	"gyroscopic":  "gyroscop",
	"adjustable":  "adjust",
	"defensible":  "defens",
	"irritant":    "irrit",
	"replacement": "replac",
	"adjustment":  "adjust",
	"dependent":   "depend",
	"adoption":    "adopt",
	"homologou":   "homolog",
	"communism":   "commun",
	"activate":    "activ",
	"angulariti":  "angular",
	"homologous":  "homolog",
	"effective":   "effect",
	"bowdlerize":  "bowdler",
	// Step 5
	"probate":  "probat",
	"rate":     "rate",
	"cease":    "ceas",
	"controll": "control",
	"roll":     "roll",
	// Short words unchanged
	"a":  "a",
	"is": "is",
	// End-to-end classics
	"running":     "run",
	"connection":  "connect",
	"connections": "connect",
	"connected":   "connect",
	"president":   "presid",
	"elected":     "elect",
	"capital":     "capit",
	"university":  "univers",
}

func TestGoldenVocabulary(t *testing.T) {
	for in, want := range goldens {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	// Stemming a stem of a dictionary-like word should be stable for the
	// overwhelming majority of realistic inputs. (Porter is not exactly
	// idempotent in general, so assert on a curated list.)
	words := []string{"running", "connections", "happily", "organizations",
		"presidents", "elections", "capitals", "questions", "answering",
		"restaurants", "closes", "authors", "nationalities"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}

func TestStemNeverGrowsOrPanics(t *testing.T) {
	f := func(s string) bool {
		// Restrict to lowercase letters as the kernel contract requires.
		var b strings.Builder
		for _, r := range s {
			if r >= 'a' && r <= 'z' {
				b.WriteRune(r)
			}
		}
		w := b.String()
		got := Stem(w)
		return len(got) <= len(w)+1 // step1b can append an 'e'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasure(t *testing.T) {
	cases := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2, "orrery": 2,
	}
	for w, want := range cases {
		if got := measure([]byte(w)); got != want {
			t.Errorf("measure(%q) = %d, want %d", w, got, want)
		}
	}
}

func TestConsonantY(t *testing.T) {
	// In "syzygy": s=c, y=v (after cons), z=c, y=v, g=c, y=v.
	b := []byte("syzygy")
	wantCons := []bool{true, false, true, false, true, false}
	for i, want := range wantCons {
		if got := isConsonant(b, i); got != want {
			t.Errorf("isConsonant(syzygy, %d) = %v, want %v", i, got, want)
		}
	}
}

func TestEndsCVC(t *testing.T) {
	if !endsCVC([]byte("hop")) {
		t.Error("hop must be CVC")
	}
	for _, w := range []string{"snow", "box", "tray", "hh", ""} {
		if endsCVC([]byte(w)) {
			t.Errorf("%q must not satisfy *o", w)
		}
	}
}

// TestStemAllVariants pins the stemmer kernel's width invariance: at
// every width StemAll gives each word its Stem, in word order, on a list
// too short to split and on one long enough to engage every worker.
func TestStemAllVariants(t *testing.T) {
	words := []string{"running", "connections", "happily", "skies", "caresses", "agreed"}
	big := make([]string, 1000)
	for i := range big {
		big[i] = words[i%len(words)]
	}
	for _, list := range [][]string{words, big} {
		for _, width := range []int{1, 2, 3, 8, 0} {
			got := StemAll(list, width)
			if len(got) != len(list) {
				t.Fatalf("width %d: %d stems for %d words", width, len(got), len(list))
			}
			for i, w := range list {
				if got[i] != Stem(w) {
					t.Fatalf("width %d: word %d %q stems to %q, Stem gives %q", width, i, w, got[i], Stem(w))
				}
			}
		}
	}
}

// vocabulary returns every distinct token of the QA corpus's document
// bodies and of the query set, in the order first seen: the words the
// served path stems. (Titles are indexed but never stemmed.)
func vocabulary() []string {
	corpus := kb.BuildCorpus(kb.DefaultCorpusConfig())
	seen := map[string]bool{}
	var words []string
	add := func(text string) {
		for _, w := range search.Tokenize(text) {
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	for i := 0; i < corpus.Len(); i++ {
		add(corpus.Doc(i).Body)
	}
	for _, q := range kb.AllQueries() {
		add(q.Text)
	}
	return words
}

// suiteWords is every word the Suite's stemmer kernel can draw: each of
// internal/suite's stemmerRoots with each of its stemmerSuffixes.
func suiteWords() []string {
	roots := []string{
		"nation", "connect", "relate", "form", "elect", "create", "operate",
		"organize", "general", "transport", "develop", "determine", "digit",
		"communicate", "active", "decide", "sense", "depend", "adjust", "run",
	}
	suffixes := []string{"", "s", "ed", "ing", "ation", "ional", "alism", "iveness", "fulness", "ization", "ally", "ement"}
	var words []string
	for _, r := range roots {
		for _, s := range suffixes {
			words = append(words, r+s)
		}
	}
	return words
}

// ruleSuffixes is every suffix a rule of steps 1 to 5 tests for, to end
// random words with.
func ruleSuffixes() []string {
	out := []string{"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"}
	for _, r := range refStep2Rules {
		out = append(out, r.suffix)
	}
	for _, r := range refStep3Rules {
		out = append(out, r.suffix)
	}
	return append(out, refStep4Suffixes...)
}

// TestStemMatchesReference is the stemmer's differential: Stem must give
// refStem's stem for every word the served path stems (the QA corpus and
// the queries), every word of the Suite kernel's input, and random lower
// case words, up to 60 bytes long and half of them ending in a rule's
// suffix.
func TestStemMatchesReference(t *testing.T) {
	check := func(set string, words []string) {
		t.Helper()
		for _, w := range words {
			if got, want := Stem(w), refStem(w); got != want {
				t.Errorf("%s: Stem(%q) = %q, reference %q", set, w, got, want)
			}
		}
	}
	vocab := vocabulary()
	if len(vocab) < 100 {
		t.Fatalf("corpus vocabulary has %d words", len(vocab))
	}
	check("corpus", vocab)
	check("suite", suiteWords())
	var golden []string
	for w := range goldens {
		golden = append(golden, w)
	}
	check("goldens", golden)

	const letters = "abcdefghijklmnopqrstuvwxyzaeiouyls"
	suffixes := ruleSuffixes()
	long := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, rng.Intn(50))
		for i := range b {
			b[i] = letters[rng.Intn(len(letters))]
		}
		w := string(b)
		if rng.Intn(2) == 0 {
			w += suffixes[rng.Intn(len(suffixes))]
		}
		if len(w) > 32 {
			long++
		}
		return Stem(w) == refStem(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
	if long == 0 {
		t.Fatal("no random word over 32 bytes")
	}
}

// FuzzStemMatchesReference runs the differential on any input: Stem's
// contract is lower case words, but both stemmers are defined on any
// bytes and must agree on them.
func FuzzStemMatchesReference(f *testing.F) {
	for _, w := range []string{"", "a", "ies", "caresses", "relational", "nationalization",
		"hopefulness", "controll", "syzygy", "yyyy", "agreed", "conflated",
		"organizationally", "internationalizationalizations", "ab\x00ed", "y\xffing"} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, reference %q", w, got, want)
		}
	})
}

// TestStemAllocs pins that stemming a word of up to 32 bytes whose stem
// is a prefix of it allocates nothing: the steps work in a stack buffer
// and the stem is returned as a slice of the word. The race detector's
// instrumentation can move buffers to the heap, so this runs only
// without it.
func TestStemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	words := []string{"connections", "running", "presidents", "capital", "hopefulness",
		"nationalizations", "internationalization", "organizationalorganizationalisms"}
	if n := len(words[len(words)-1]); n != 32 {
		t.Fatalf("the longest word has %d bytes, want 32", n)
	}
	for _, w := range words {
		if stem := refStem(w); !strings.HasPrefix(w, stem) {
			t.Fatalf("%q stems to %q, not a prefix of it", w, stem)
		}
		if n := testing.AllocsPerRun(100, func() { Stem(w) }); n != 0 {
			t.Errorf("Stem(%q): %v allocations, want 0", w, n)
		}
	}
}

// BenchmarkStem stems the served path's vocabulary, every distinct word of
// the QA corpus and the query set, one word an op.
func BenchmarkStem(b *testing.B) {
	words := vocabulary()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

// refStem is the stemmer as first written: each step a scan of its whole
// rule table, each suffix test a string comparison, on a fresh heap copy
// of the word. Stem must give exactly its stems; the tests below check
// that on the QA corpus, the queries, the Suite's word list, random
// words and the fuzz corpus.
func refStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	b := []byte(word)
	b = refStep1a(b)
	b = refStep1b(b)
	b = refStep1c(b)
	b = refStep2(b)
	b = refStep3(b)
	b = refStep4(b)
	b = refStep5a(b)
	b = refStep5b(b)
	return string(b)
}

// refIsConsonant reports whether b[i] acts as a consonant at position i.
// 'y' is a consonant when preceded by a vowel position (per Porter).
func refIsConsonant(b []byte, i int) bool {
	switch b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsConsonant(b, i-1)
	default:
		return true
	}
}

// refMeasure computes m(), the number of VC sequences in b[:len(b)].
func refMeasure(b []byte) int {
	n := 0
	i := 0
	// Skip initial consonants.
	for i < len(b) && refIsConsonant(b, i) {
		i++
	}
	for {
		// Skip vowels.
		if i >= len(b) {
			return n
		}
		for i < len(b) && !refIsConsonant(b, i) {
			i++
		}
		if i >= len(b) {
			return n
		}
		// Skip consonants: one full VC seen.
		for i < len(b) && refIsConsonant(b, i) {
			i++
		}
		n++
	}
}

// refHasVowel reports whether the stem contains a vowel.
func refHasVowel(b []byte) bool {
	for i := range b {
		if !refIsConsonant(b, i) {
			return true
		}
	}
	return false
}

// refEndsDoubleConsonant reports whether b ends with a doubled consonant.
func refEndsDoubleConsonant(b []byte) bool {
	n := len(b)
	return n >= 2 && b[n-1] == b[n-2] && refIsConsonant(b, n-1)
}

// refEndsCVC reports whether b ends consonant-vowel-consonant where the
// final consonant is not w, x or y (the *o condition in Porter's paper).
func refEndsCVC(b []byte) bool {
	n := len(b)
	if n < 3 {
		return false
	}
	if !refIsConsonant(b, n-3) || refIsConsonant(b, n-2) || !refIsConsonant(b, n-1) {
		return false
	}
	switch b[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func refHasSuffix(b []byte, s string) bool {
	if len(b) < len(s) {
		return false
	}
	return string(b[len(b)-len(s):]) == s
}

// refReplaceIfM replaces suffix with repl when the stem before the suffix
// has refMeasure > m. Returns the (possibly new) slice and whether the
// suffix matched (regardless of the refMeasure test firing).
func refReplaceIfM(b []byte, suffix, repl string, m int) ([]byte, bool) {
	if !refHasSuffix(b, suffix) {
		return b, false
	}
	stem := b[:len(b)-len(suffix)]
	if refMeasure(stem) > m {
		return append(stem, repl...), true
	}
	return b, true
}

func refStep1a(b []byte) []byte {
	switch {
	case refHasSuffix(b, "sses"):
		return b[:len(b)-2]
	case refHasSuffix(b, "ies"):
		return b[:len(b)-2]
	case refHasSuffix(b, "ss"):
		return b
	case refHasSuffix(b, "s"):
		return b[:len(b)-1]
	}
	return b
}

func refStep1b(b []byte) []byte {
	if refHasSuffix(b, "eed") {
		if refMeasure(b[:len(b)-3]) > 0 {
			return b[:len(b)-1]
		}
		return b
	}
	var stem []byte
	switch {
	case refHasSuffix(b, "ed") && refHasVowel(b[:len(b)-2]):
		stem = b[:len(b)-2]
	case refHasSuffix(b, "ing") && refHasVowel(b[:len(b)-3]):
		stem = b[:len(b)-3]
	default:
		return b
	}
	// Cleanup after removing -ed / -ing.
	switch {
	case refHasSuffix(stem, "at"), refHasSuffix(stem, "bl"), refHasSuffix(stem, "iz"):
		return append(stem, 'e')
	case refEndsDoubleConsonant(stem) && !refHasSuffix(stem, "l") && !refHasSuffix(stem, "s") && !refHasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case refMeasure(stem) == 1 && refEndsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func refStep1c(b []byte) []byte {
	if refHasSuffix(b, "y") && refHasVowel(b[:len(b)-1]) {
		b[len(b)-1] = 'i'
	}
	return b
}

var refStep2Rules = []struct{ suffix, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func refStep2(b []byte) []byte {
	for _, r := range refStep2Rules {
		if b2, matched := refReplaceIfM(b, r.suffix, r.repl, 0); matched {
			return b2
		}
	}
	return b
}

var refStep3Rules = []struct{ suffix, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(b []byte) []byte {
	for _, r := range refStep3Rules {
		if b2, matched := refReplaceIfM(b, r.suffix, r.repl, 0); matched {
			return b2
		}
	}
	return b
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(b []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(b, s) {
			continue
		}
		stem := b[:len(b)-len(s)]
		if refMeasure(stem) <= 1 {
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

func refStep5a(b []byte) []byte {
	if !refHasSuffix(b, "e") {
		return b
	}
	stem := b[:len(b)-1]
	m := refMeasure(stem)
	if m > 1 || (m == 1 && !refEndsCVC(stem)) {
		return stem
	}
	return b
}

func refStep5b(b []byte) []byte {
	if refMeasure(b) > 1 && refEndsDoubleConsonant(b) && refHasSuffix(b, "ll") {
		return b[:len(b)-1]
	}
	return b
}
