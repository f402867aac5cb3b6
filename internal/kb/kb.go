// Package kb is the knowledge substrate for Sirius: a fact base rendered
// into a searchable document corpus, and the 42-query input set spanning
// the paper's query taxonomy (Table 1: 16 Voice Commands, 16 Voice
// Queries, 10 Voice-Image Queries; Table 2 shows the VQ style). The
// paper's corpus (live web search) is replaced by this synthetic corpus
// per the reproduction's substitution rules.
package kb

import (
	"strings"

	"sirius/internal/hmm"
	"sirius/internal/search"
)

// fact is one (subject, relation, object) triple; Object is the answer to
// questions about Subject's Relation.
type fact struct {
	Subject  string
	Relation string // "capital", "author", "location", "president", ...
	Object   string
}

// facts is the ground-truth fact base. Answers to the VQ/VIQ input set
// all come from here.
var facts = []fact{
	{"italy", "capital", "rome"},
	{"france", "capital", "paris"},
	{"cuba", "capital", "havana"},
	{"spain", "capital", "madrid"},
	{"germany", "capital", "berlin"},
	{"japan", "capital", "tokyo"},
	{"harry potter", "author", "rowling"},
	{"the hobbit", "author", "tolkien"},
	{"hamlet", "author", "shakespeare"},
	{"las vegas", "location", "nevada"},
	{"the eiffel tower", "location", "paris"},
	{"mount fuji", "location", "japan"},
	{"america", "president", "obama"},
	{"the united states", "president", "obama"},
	{"microsoft", "founder", "gates"},
	{"apple", "founder", "jobs"},
	{"the longest river", "name", "nile"},
	{"the tallest mountain", "name", "everest"},
	// Relations beyond the 42-query input set; QA generalization tests
	// ask about these without them appearing in the voice query corpus.
	{"italy", "language", "italian"},
	{"germany", "language", "german"},
	{"japan", "language", "japanese"},
	{"japan", "currency", "yen"},
	{"germany", "currency", "euro"},
	{"america", "currency", "dollar"},
	// VIQ entities: matched images resolve to these subjects.
	{"luigis restaurant", "closing", "ten"},
	{"luigis restaurant", "opening", "nine"},
	{"city museum", "closing", "five"},
	{"city museum", "opening", "nine"},
	{"grand hotel", "rating", "four"},
	{"central library", "closing", "eight"},
	{"sun cafe", "closing", "six"},
	{"sun cafe", "rating", "five"},
	{"star theater", "opening", "seven"},
	{"river park", "rating", "three"},
}

// relationPhrases renders a fact into several paraphrases; multiple
// renderings per fact create the document-filter hit variability the
// paper traces QA latency variance to (Fig 8c).
var relationPhrases = map[string][]string{
	"capital": {
		"%[2]s is the capital of %[1]s",
		"the capital of %[1]s is %[2]s",
		"%[1]s has its capital at %[2]s",
	},
	"author": {
		"%[2]s is the author of %[1]s",
		"%[1]s was written by %[2]s",
		"the author of %[1]s is %[2]s",
	},
	"location": {
		"%[1]s is located in %[2]s",
		"%[1]s can be found in %[2]s",
		"%[1]s is in %[2]s",
	},
	"president": {
		"%[2]s is the president of %[1]s",
		"the current president of %[1]s is %[2]s",
		"%[2]s was elected president of %[1]s",
	},
	"founder": {
		"%[2]s founded %[1]s",
		"%[1]s was founded by %[2]s",
	},
	"name": {
		"%[1]s is the %[2]s",
		"the %[2]s is %[1]s",
	},
	"closing": {
		"%[1]s closes at %[2]s",
		"the closing time of %[1]s is %[2]s",
	},
	"opening": {
		"%[1]s opens at %[2]s",
		"the opening time of %[1]s is %[2]s",
	},
	"rating": {
		"%[1]s has a rating of %[2]s stars",
		"the rating of %[1]s is %[2]s stars",
	},
	"language": {
		"%[2]s is spoken in %[1]s",
		"the language of %[1]s is %[2]s",
	},
	"currency": {
		"the currency of %[1]s is the %[2]s",
		"%[1]s uses the %[2]s",
	},
}

// fillerWords pads documents so retrieval and filtering do nontrivial
// work per document.
var fillerWords = []string{
	"history", "region", "people", "famous", "known", "world", "large",
	"small", "old", "popular", "visited", "travel", "culture", "north",
	"south", "years", "built", "near", "great", "many",
}

// CorpusConfig controls corpus generation.
type CorpusConfig struct {
	DistractorDocs int // unrelated documents
}

// DefaultCorpusConfig matches the scale the QA benchmarks assume.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{DistractorDocs: 400}
}

// Every corpus indexes about paraphrasesPerFact renderings of each fact,
// appends fillerSentences filler sentences to each document, and draws
// its text from one rng seeded with corpusSeed.
const (
	paraphrasesPerFact = 5
	fillerSentences    = 6
	corpusSeed         = 42
)

// paraphraseCount varies how often fact fi is restated in the corpus
// (between 1 and 2*paraphrasesPerFact, deterministic per fact). The
// spread is what makes different questions hit the QA document filters a
// different number of times — the latency-variability mechanism the paper
// identifies in Fig 8c.
func paraphraseCount(fi int) int {
	return 1 + (fi*7)%(2*paraphrasesPerFact)
}

// BuildCorpus renders the fact base into an indexed corpus: the one-shard
// case of BuildCorpusShard, where every document's index ID equals its
// global ID.
func BuildCorpus(cfg CorpusConfig) *search.Index {
	return BuildCorpusShard(cfg, 0, 1)
}

// QueryClass is the paper's query taxonomy (Table 1).
type QueryClass int

const (
	// VoiceCommand exercises only ASR; the result is an action.
	VoiceCommand QueryClass = iota
	// VoiceQuery exercises ASR and QA.
	VoiceQuery
	// VoiceImageQuery exercises ASR, QA and IMM.
	VoiceImageQuery
)

func (c QueryClass) String() string {
	switch c {
	case VoiceCommand:
		return "VC"
	case VoiceQuery:
		return "VQ"
	default:
		return "VIQ"
	}
}

// Query is one input-set entry.
type Query struct {
	ID      string
	Class   QueryClass
	Text    string // the dictated query
	ImageID string // VIQ: entity whose image accompanies the query
	Want    string // expected answer (VQ/VIQ) or action verb (VC)
}

// VoiceCommands is the 16-command VC input set (Table 1 row 1).
var VoiceCommands = []Query{
	{ID: "vc1", Class: VoiceCommand, Text: "set my alarm for eight", Want: "set"},
	{ID: "vc2", Class: VoiceCommand, Text: "call mom", Want: "call"},
	{ID: "vc3", Class: VoiceCommand, Text: "open the calendar", Want: "open"},
	{ID: "vc4", Class: VoiceCommand, Text: "play some music", Want: "play"},
	{ID: "vc5", Class: VoiceCommand, Text: "send a text to john", Want: "send"},
	{ID: "vc6", Class: VoiceCommand, Text: "start the timer", Want: "start"},
	{ID: "vc7", Class: VoiceCommand, Text: "stop the music", Want: "stop"},
	{ID: "vc8", Class: VoiceCommand, Text: "turn on the lights", Want: "turn"},
	{ID: "vc9", Class: VoiceCommand, Text: "turn off the lights", Want: "turn"},
	{ID: "vc10", Class: VoiceCommand, Text: "take a note", Want: "take"},
	{ID: "vc11", Class: VoiceCommand, Text: "show my schedule", Want: "show"},
	{ID: "vc12", Class: VoiceCommand, Text: "set a reminder", Want: "set"},
	{ID: "vc13", Class: VoiceCommand, Text: "open the camera", Want: "open"},
	{ID: "vc14", Class: VoiceCommand, Text: "call the office", Want: "call"},
	{ID: "vc15", Class: VoiceCommand, Text: "play the next song", Want: "play"},
	{ID: "vc16", Class: VoiceCommand, Text: "mute the phone", Want: "mute"},
}

// VoiceQueries is the 16-question VQ input set (Table 2 style).
var VoiceQueries = []Query{
	{ID: "q1", Class: VoiceQuery, Text: "where is las vegas", Want: "nevada"},
	{ID: "q2", Class: VoiceQuery, Text: "what is the capital of italy", Want: "rome"},
	{ID: "q3", Class: VoiceQuery, Text: "who is the author of harry potter", Want: "rowling"},
	{ID: "q4", Class: VoiceQuery, Text: "what is the capital of france", Want: "paris"},
	{ID: "q5", Class: VoiceQuery, Text: "who is the president of america", Want: "obama"},
	{ID: "q6", Class: VoiceQuery, Text: "what is the capital of cuba", Want: "havana"},
	{ID: "q7", Class: VoiceQuery, Text: "where is the eiffel tower", Want: "paris"},
	{ID: "q8", Class: VoiceQuery, Text: "who wrote the hobbit", Want: "tolkien"},
	{ID: "q9", Class: VoiceQuery, Text: "what is the longest river", Want: "nile"},
	{ID: "q10", Class: VoiceQuery, Text: "what is the tallest mountain", Want: "everest"},
	{ID: "q11", Class: VoiceQuery, Text: "who founded microsoft", Want: "gates"},
	{ID: "q12", Class: VoiceQuery, Text: "where is mount fuji", Want: "japan"},
	{ID: "q13", Class: VoiceQuery, Text: "what is the capital of spain", Want: "madrid"},
	{ID: "q14", Class: VoiceQuery, Text: "who wrote hamlet", Want: "shakespeare"},
	{ID: "q15", Class: VoiceQuery, Text: "what is the capital of germany", Want: "berlin"},
	{ID: "q16", Class: VoiceQuery, Text: "who is the current president of the united states", Want: "obama"},
}

// VoiceImageQueries is the 10-question VIQ input set. ImageID names the
// entity whose image accompanies the spoken query; the IMM service
// resolves "this ..." to it.
var VoiceImageQueries = []Query{
	{ID: "viq1", Class: VoiceImageQuery, Text: "when does this restaurant close", ImageID: "luigis restaurant", Want: "ten"},
	{ID: "viq2", Class: VoiceImageQuery, Text: "when does this restaurant open", ImageID: "luigis restaurant", Want: "nine"},
	{ID: "viq3", Class: VoiceImageQuery, Text: "when does this museum close", ImageID: "city museum", Want: "five"},
	{ID: "viq4", Class: VoiceImageQuery, Text: "when does this museum open", ImageID: "city museum", Want: "nine"},
	{ID: "viq5", Class: VoiceImageQuery, Text: "what is the rating of this hotel", ImageID: "grand hotel", Want: "four"},
	{ID: "viq6", Class: VoiceImageQuery, Text: "when does this library close", ImageID: "central library", Want: "eight"},
	{ID: "viq7", Class: VoiceImageQuery, Text: "when does this cafe close", ImageID: "sun cafe", Want: "six"},
	{ID: "viq8", Class: VoiceImageQuery, Text: "what is the rating of this cafe", ImageID: "sun cafe", Want: "five"},
	{ID: "viq9", Class: VoiceImageQuery, Text: "when does this theater open", ImageID: "star theater", Want: "seven"},
	{ID: "viq10", Class: VoiceImageQuery, Text: "what is the rating of this park", ImageID: "river park", Want: "three"},
}

// AllQueries returns the full 42-query input set in taxonomy order.
func AllQueries() []Query {
	out := make([]Query, 0, len(VoiceCommands)+len(VoiceQueries)+len(VoiceImageQueries))
	out = append(out, VoiceCommands...)
	out = append(out, VoiceQueries...)
	out = append(out, VoiceImageQueries...)
	return out
}

// ImageEntities returns the distinct VIQ entity names, the labels of the
// image database.
func ImageEntities() []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range VoiceImageQueries {
		if !seen[q.ImageID] {
			seen[q.ImageID] = true
			out = append(out, q.ImageID)
		}
	}
	return out
}

// BuildTrigram returns an empty hmm.Trigram. It remains only for the
// benchmark's replay kit (bench/replay.go), which passes the result to
// asr.Recognizer.EnableRescoring, a no-op; both go when that call does.
func BuildTrigram(*hmm.Lexicon) *hmm.Trigram { return &hmm.Trigram{} }

// BuildLexicon returns an ASR lexicon covering every word of the query
// input set (plus silence), and a bigram LM trained on the query texts.
func BuildLexicon() (*hmm.Lexicon, *hmm.Bigram) {
	lex := hmm.NewLexicon()
	for _, q := range AllQueries() {
		for _, w := range strings.Fields(q.Text) {
			lex.AddWords(w)
		}
	}
	lex.AddSilence()
	lm := hmm.NewBigram(lex)
	for _, q := range AllQueries() {
		lm.Observe(q.Text)
	}
	return lex, lm
}
