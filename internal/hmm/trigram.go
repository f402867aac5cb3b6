package hmm

// Trigram is empty: the search decodes in one pass, under the graph's
// bigram alone. The type remains only for the benchmark's replay kit
// (bench/replay.go), which builds one with kb.BuildTrigram and hands it
// to asr.Recognizer.EnableRescoring, and it goes when that call does.
type Trigram struct{}
