// Package suite is Sirius Suite: the 7 computational bottlenecks the
// paper extracts from the end-to-end Sirius pipeline (Table 4) packaged
// as standalone kernels — GMM and DNN scoring (ASR), Porter stemming,
// regular-expression matching and CRF tagging (QA), and SURF feature
// extraction and description (IMM). Each kernel is one call that takes a
// width: width 1 is its single-threaded baseline and any greater width
// its data-parallel multicore port, at the granularity the paper lists
// ("for each HMM state", "for each individual word", ...), on the shared
// mat worker pool.
package suite

import (
	"fmt"
	"math/rand"
	"time"

	"sirius/internal/dnn"
	"sirius/internal/gmm"
	"sirius/internal/mat"
	"sirius/internal/nlp/crf"
	"sirius/internal/nlp/regex"
	"sirius/internal/nlp/stemmer"
	"sirius/internal/vision"
)

// Kernel identifies one Sirius Suite benchmark.
type Kernel string

// The seven Suite kernels (Table 4).
const (
	KernelGMM     Kernel = "gmm"
	KernelDNN     Kernel = "dnn"
	KernelStemmer Kernel = "stemmer"
	KernelRegex   Kernel = "regex"
	KernelCRF     Kernel = "crf"
	KernelFE      Kernel = "fe"
	KernelFD      Kernel = "fd"
)

// Kernels lists the suite in Table 4 order.
var Kernels = []Kernel{KernelGMM, KernelDNN, KernelStemmer, KernelRegex, KernelCRF, KernelFE, KernelFD}

// Info describes a kernel's provenance per Table 4.
type Info struct {
	Service  string // ASR, QA or IMM
	Baseline string // the open-source implementation the paper ported
}

// table4 records the suite metadata.
var table4 = map[Kernel]Info{
	KernelGMM:     {"ASR", "CMU Sphinx"},
	KernelDNN:     {"ASR", "RWTH RASR"},
	KernelStemmer: {"QA", "Porter"},
	KernelRegex:   {"QA", "SLRE"},
	KernelCRF:     {"QA", "CRFsuite"},
	KernelFE:      {"IMM", "SURF"},
	KernelFD:      {"IMM", "SURF"},
}

// Benchmark is a prepared, runnable kernel instance.
type Benchmark struct {
	Kernel Kernel
	Info   Info
	// Run executes the kernel once over its input set at the given
	// width (1 = the single-threaded baseline).
	Run func(width int)
	// Items is the input-set size (for ns/item reporting).
	Items int
}

// Scale sizes the kernel input sets.
type Scale struct {
	GMMSenones    int
	GMMFrames     int
	DNNBatch      int
	StemmerWords  int
	RegexPatterns int
	RegexTexts    int
	CRFSentences  int
	ImageSize     int
	Seed          int64
}

// DefaultScale approximates the paper's input-set shapes at laptop scale.
func DefaultScale() Scale {
	return Scale{
		GMMSenones:    256,
		GMMFrames:     32,
		DNNBatch:      128,
		StemmerWords:  40000,
		RegexPatterns: 100,
		RegexTexts:    400,
		CRFSentences:  200,
		ImageSize:     256,
		Seed:          1,
	}
}

// Build prepares every suite kernel at the given scale. Construction cost
// (model training, input synthesis) is paid here, not in Run.
func Build(s Scale) map[Kernel]*Benchmark {
	rng := rand.New(rand.NewSource(s.Seed))
	out := map[Kernel]*Benchmark{}

	out[KernelGMM] = buildGMM(s, rng)
	out[KernelDNN] = buildDNN(s, rng)
	out[KernelStemmer] = buildStemmer(s, rng)
	out[KernelRegex] = buildRegex(s, rng)
	out[KernelCRF] = buildCRF(s)
	fe, fd := buildImage(s)
	out[KernelFE] = fe
	out[KernelFD] = fd
	for k, b := range out {
		b.Kernel = k
		b.Info = table4[k]
	}
	return out
}

func buildGMM(s Scale, rng *rand.Rand) *Benchmark {
	models := make([]*gmm.Model, s.GMMSenones)
	for i := range models {
		m := gmm.NewModel(8, 39)
		for k := range m.Means {
			for d := range m.Means[k] {
				m.Means[k][d] = rng.NormFloat64() * 2
				m.Precs[k][d] = 0.5 + rng.Float64()
			}
		}
		m.RecomputeFactors()
		models[i] = m
	}
	bank := gmm.NewBank(models)
	frames := make([][]float64, s.GMMFrames)
	for i := range frames {
		frames[i] = make([]float64, 39)
		for d := range frames[i] {
			frames[i][d] = rng.NormFloat64()
		}
	}
	dst := make([]float64, len(frames)*bank.States())
	return &Benchmark{
		Items: s.GMMSenones * s.GMMFrames,
		// Frame ranges of the block run on the pool.
		Run: func(width int) { bank.Score(dst, frames, width) },
	}
}

func buildDNN(s Scale, rng *rand.Rand) *Benchmark {
	net := dnn.New(rng, dnn.Sigmoid, 39, 256, 256, 128).Freeze()
	batch := mat.NewDense(s.DNNBatch, 39)
	batch.Randomize(rng, 1)
	return &Benchmark{
		Items: s.DNNBatch,
		// The forward pass is a chain of matrix multiplications, each
		// split into row panels on the pool (Table 4 granularity).
		Run: func(width int) { net.Forward(batch, false, width) },
	}
}

// stemmerRoots combine into a realistic morphological input set.
var stemmerRoots = []string{
	"nation", "connect", "relate", "form", "elect", "create", "operate",
	"organize", "general", "transport", "develop", "determine", "digit",
	"communicate", "active", "decide", "sense", "depend", "adjust", "run",
}
var stemmerSuffixes = []string{"", "s", "ed", "ing", "ation", "ional", "alism", "iveness", "fulness", "ization", "ally", "ement"}

// stemmerWords draws the stemmer kernel's input: n root+suffix words.
func stemmerWords(n int, rng *rand.Rand) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = stemmerRoots[rng.Intn(len(stemmerRoots))] + stemmerSuffixes[rng.Intn(len(stemmerSuffixes))]
	}
	return words
}

func buildStemmer(s Scale, rng *rand.Rand) *Benchmark {
	words := stemmerWords(s.StemmerWords, rng)
	return &Benchmark{
		Items: len(words),
		Run:   func(width int) { stemmer.StemAll(words, width) },
	}
}

func buildRegex(s Scale, rng *rand.Rand) *Benchmark {
	// Pattern set in the spirit of the QA filters: question words,
	// numerics, entities, classes.
	protos := []string{
		`^(who|what|where|when|why|how) `,
		`\d+`,
		`[a-z]+ed$`,
		`(president|capital|author|river|mountain)`,
		`^the `,
		` (is|was|are) `,
		`\w+ of \w+`,
		`close[ds]?`,
		`[0-9][0-9]*(th|st|nd|rd)`,
		`open(s|ed|ing)?`,
	}
	patterns := make([]*regex.Regexp, s.RegexPatterns)
	for i := range patterns {
		patterns[i] = regex.MustCompile(protos[i%len(protos)])
	}
	vocab := []string{"who", "was", "elected", "44th", "president", "the", "capital", "of",
		"italy", "closes", "at", "ten", "is", "a", "famous", "river", "in", "1984", "opened"}
	texts := make([]string, s.RegexTexts)
	for i := range texts {
		n := 5 + rng.Intn(10)
		var b []byte
		for w := 0; w < n; w++ {
			b = append(b, vocab[rng.Intn(len(vocab))]...)
			b = append(b, ' ')
		}
		texts[i] = string(b)
	}
	run := func(lo, hi int) {
		for ti := lo; ti < hi; ti++ {
			for _, p := range patterns {
				p.MatchString(texts[ti])
			}
		}
	}
	return &Benchmark{
		Items: s.RegexPatterns * s.RegexTexts,
		Run:   func(width int) { mat.ParallelWidth(width, len(texts), 1, run) },
	}
}

func buildCRF(s Scale) *Benchmark {
	samples := crf.Generate(s.CRFSentences+200, s.Seed)
	train := samples[:200]
	eval := samples[200:]
	sents, tags := crf.TokensAndTags(train, true)
	cfg := crf.DefaultTrainConfig()
	cfg.Epochs = 4
	tagger := crf.Train(sents, tags, cfg)
	inputs := make([][]string, len(eval))
	for i, e := range eval {
		inputs[i] = e.Tokens
	}
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tagger.Tag(inputs[i])
		}
	}
	return &Benchmark{
		Items: len(inputs),
		Run:   func(width int) { mat.ParallelWidth(width, len(inputs), 1, run) },
	}
}

func buildImage(s Scale) (fe, fd *Benchmark) {
	cfg := vision.DefaultSceneConfig()
	cfg.W, cfg.H = s.ImageSize, s.ImageSize
	im := vision.GenerateScene("suite image", cfg)
	ii := vision.NewIntegral(im)
	kps := vision.DetectKeypoints(ii, 1)
	fe = &Benchmark{
		Items: len(vision.Tiles(im.W, im.H)),
		Run:   func(width int) { vision.DetectKeypoints(ii, width) },
	}
	fd = &Benchmark{
		Items: len(kps),
		Run:   func(width int) { vision.DescribeAll(ii, kps, width) },
	}
	return fe, fd
}

// Measurement is one timed kernel execution.
type Measurement struct {
	Kernel  Kernel
	Workers int
	PerRun  time.Duration
	Runs    int
}

// Measure times bench.Run(workers), repeating until minTime has elapsed
// (at least once), and reports the mean per-run duration.
func Measure(bench *Benchmark, workers int, minTime time.Duration) Measurement {
	// Warm-up run.
	bench.Run(workers)
	var elapsed time.Duration
	runs := 0
	for elapsed < minTime || runs == 0 {
		start := time.Now()
		bench.Run(workers)
		elapsed += time.Since(start)
		runs++
		if runs > 1000 {
			break
		}
	}
	return Measurement{Kernel: bench.Kernel, Workers: workers, PerRun: elapsed / time.Duration(runs), Runs: runs}
}

// String renders a measurement for harness output.
func (m Measurement) String() string {
	return fmt.Sprintf("%-8s workers=%-2d %12v/run (%d runs)", m.Kernel, m.Workers, m.PerRun, m.Runs)
}
