package sirius

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"sirius/internal/asr"
	"sirius/internal/audio"
	"sirius/internal/kb"
	"sirius/internal/search"
	"sirius/internal/shard"
	"sirius/internal/vision"
)

var sharedPipeline *Pipeline

func pipeline(t testing.TB) *Pipeline {
	if sharedPipeline == nil {
		p, err := New(DefaultConfig())
		if err != nil {
			panic(err)
		}
		sharedPipeline = p
	}
	return sharedPipeline
}

func TestClassifier(t *testing.T) {
	p := pipeline(t)
	for _, q := range kb.VoiceCommands {
		if p.classifyText(q.Text) != KindAction {
			t.Errorf("%q misclassified as question", q.Text)
		}
	}
	for _, q := range kb.VoiceQueries {
		if p.classifyText(q.Text) != KindAnswer {
			t.Errorf("%q misclassified as action", q.Text)
		}
	}
	// "stop" as verb vs inside a word.
	if p.classifyText("stopwatch history") != KindAnswer {
		t.Error("prefix must not match inside a word")
	}
}

func TestProcessTextCommands(t *testing.T) {
	p := pipeline(t)
	resp, err := p.Process(context.Background(), Request{Text: "set my alarm for eight"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindAction || resp.Action != "set" {
		t.Fatalf("command response: %+v", resp)
	}
	if resp.Latency.Total <= 0 {
		t.Fatal("latency must be positive")
	}
}

// TestQALatencyCoversItsTimers pins what the QA timers measure: Latency.QA
// is the service's wall time, so the four component timers, which do not
// overlap, sum to at most it, and it is at most the query's total. A
// question whose sentences pass the keyword filter runs the regex battery
// and the answer patterns, so its regex timer is nonzero; a command runs
// no QA at all.
func TestQALatencyCoversItsTimers(t *testing.T) {
	p := pipeline(t)
	for _, c := range []struct {
		text     string
		question bool
	}{
		{"what is the capital of italy", true},
		{"set my alarm for eight", false},
	} {
		resp, err := p.Process(context.Background(), Request{Text: c.text})
		if err != nil {
			t.Fatal(err)
		}
		l := resp.Latency
		parts := l.QAStemming + l.QARegex + l.QACRF + l.QARetrieval
		if parts > l.QA || l.QA > l.Total {
			t.Errorf("%q: stem %v + regex %v + crf %v + retrieval %v = %v, QA %v, total %v: want parts <= QA <= total",
				c.text, l.QAStemming, l.QARegex, l.QACRF, l.QARetrieval, parts, l.QA, l.Total)
		}
		if !c.question {
			if l.QA != 0 || parts != 0 {
				t.Errorf("%q: a command ran QA: %+v", c.text, l)
			}
			continue
		}
		if l.QAFilterHits == 0 || l.QARegex <= 0 {
			t.Errorf("%q: %d filter hits, regex %v: want both nonzero", c.text, l.QAFilterHits, l.QARegex)
		}
	}
}

// TestAllocBudgets pins the heap allocations of one call on each hot path,
// a row per path, averaged over a fixed cycle of its inputs: one query
// through Pipeline.Process for every question of kb.AllQueries on the text
// path and for every command; one recognition of each of the 42 bench
// recordings (query i at synthesis seed 100+i) on the GMM at fp64 and on
// the DNN at fp64 and int8; one leaf's shard.Exec of a question on a kb
// corpus shard; and, on the GMM at fp64, one Stream.Push of a 200 ms
// chunk of those recordings and one Stream.Finish. Each row runs its
// calls once uncounted before it counts them, so its count does not
// depend on which rows ran before it. Allocation counts do not drift
// with the machine the way times do, so a row that grows is a
// regression to explain, and a change that lowers one lowers its cap.
// The regex kernel pools its scratch, and the race detector's sync.Pool
// drops puts at random, so this runs only without it.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under -race")
	}
	p := pipeline(t)
	cfg := DefaultConfig()
	cfg.Engine = asr.EngineDNN
	dnn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dnn.Close()
	var questions, commands []string
	for _, q := range kb.AllQueries() {
		if p.classifyText(q.Text) == KindAction {
			commands = append(commands, q.Text)
		} else {
			questions = append(questions, q.Text)
		}
	}
	var recordings [][]float64
	for i, q := range kb.AllQueries() {
		samples, err := asr.SynthesizeText(p.Lexicon(), q.Text, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		recordings = append(recordings, samples)
	}
	process := func(texts []string) func(int) {
		return func(i int) {
			if _, err := p.Process(context.Background(), Request{Text: texts[i%len(texts)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recognize := func(p *Pipeline, prec asr.Precision) func(int) {
		return func(i int) {
			if _, err := p.recognizer.RecognizePrecision(context.Background(), recordings[i%len(recordings)], prec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One GMM fp64 stream per recording, fed in the bench's 3 200-sample
	// (200 ms) chunks: the Push row pushes every chunk of every stream in
	// turn, and the Finish row then finishes each stream. A stream is
	// used up by its cycle, so the stream rows warm up on a second set.
	type push struct {
		s     *asr.Stream
		chunk []float64
	}
	openStreams := func() ([]*asr.Stream, []push) {
		var streams []*asr.Stream
		var pushes []push
		for _, rec := range recordings {
			s, err := p.recognizer.NewStream(context.Background(), asr.StreamConfig{})
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, s)
			for off := 0; off < len(rec); off += 3200 {
				pushes = append(pushes, push{s, rec[off:min(off+3200, len(rec))]})
			}
		}
		return streams, pushes
	}
	streams, pushes := openStreams()
	warmStreams, warmPushes := openStreams()
	pushChunks := func(pushes []push) func(int) {
		return func(i int) {
			if _, err := pushes[i].s.Push(pushes[i].chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	finishStreams := func(streams []*asr.Stream) func(int) {
		return func(i int) {
			if _, err := streams[i].Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	leaf := kb.BuildCorpusShard(kb.DefaultCorpusConfig(), 0, 2)
	req := shard.Request{Terms: search.QueryTerms("what is the capital of italy"), K: 10}
	for _, row := range []struct {
		name string
		runs int
		call func(i int)
		// warm makes the row's calls uncounted, on inputs of its own
		// where a call uses its input up; nil means call itself.
		warm func(i int)
		max  float64
	}{
		{"text question", len(questions), process(questions), nil, 426},
		{"text command", len(commands), process(commands), nil, 2},
		{"recognize GMM fp64", len(recordings), recognize(p, asr.PrecisionFP64), nil, 35},
		{"recognize DNN fp64", len(recordings), recognize(dnn, asr.PrecisionFP64), nil, 53},
		{"recognize DNN int8", len(recordings), recognize(dnn, asr.PrecisionInt8), nil, 36},
		{"leaf shard.Exec", 1, func(int) { shard.Exec(leaf, req, 0, 2) }, nil, 32},
		{"stream Push chunk", len(pushes) - 1, pushChunks(pushes), pushChunks(warmPushes), 18},
		{"stream Finish", len(streams) - 1, finishStreams(streams), finishStreams(warmStreams), 23},
	} {
		// AllocsPerRun makes one uncounted call first, so row.runs runs
		// count each input of the cycle once (the stream rows count each
		// but the first, which the uncounted call takes). Before it the
		// same calls, i = 0..runs, run once uncounted, so each row starts
		// from the pool state its own inputs leave and not the one the
		// rows before it left. A collection empties every sync.Pool, so
		// one runs before the row and none during its warm-up and count.
		warm := row.warm
		if warm == nil {
			warm = row.call
		}
		n := func() float64 {
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i <= row.runs; i++ {
				warm(i)
			}
			i := 0
			return testing.AllocsPerRun(row.runs, func() {
				row.call(i)
				i++
			})
		}()
		t.Logf("%s: %v allocations a call", row.name, n)
		if n > row.max {
			t.Errorf("%s: %v allocations a call, budget %v", row.name, n, row.max)
		}
	}
}

func TestProcessTextQuestions(t *testing.T) {
	p := pipeline(t)
	correct := 0
	for _, q := range kb.VoiceQueries {
		resp, err := p.Process(context.Background(), Request{Text: q.Text})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindAnswer {
			t.Fatalf("%q not routed to QA", q.Text)
		}
		if resp.Answer == q.Want {
			correct++
		}
	}
	if correct < 14 {
		t.Fatalf("text QA answered %d/16", correct)
	}
}

func TestProcessTextImageVIQ(t *testing.T) {
	p := pipeline(t)
	correct := 0
	for i, q := range kb.VoiceImageQueries {
		scene := vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
		photo := vision.Warp(scene, vision.DefaultWarp(int64(500+i)))
		resp, err := p.Process(context.Background(), Request{Text: q.Text, Image: photo})
		if err != nil {
			t.Fatal(err)
		}
		if resp.MatchedImage == q.ImageID && resp.Answer == q.Want {
			correct++
		} else {
			t.Logf("%s: matched %q answered %q (want %q)", q.ID, resp.MatchedImage, resp.Answer, q.Want)
		}
		if resp.Latency.IMM <= 0 {
			t.Fatalf("%s: IMM latency missing", q.ID)
		}
	}
	if correct < 7 {
		t.Fatalf("VIQ answered %d/10", correct)
	}
}

func TestProcessVoiceCommand(t *testing.T) {
	p := pipeline(t)
	correct := 0
	for i, q := range kb.VoiceCommands {
		samples, err := asr.SynthesizeText(p.Lexicon(), q.Text, int64(9000+i))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := p.Process(context.Background(), Request{Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Latency.ASR <= 0 || resp.Latency.ASRScoring <= 0 {
			t.Fatalf("ASR latency missing: %+v", resp.Latency)
		}
		if resp.Kind == KindAction && resp.Action == q.Want {
			correct++
		} else {
			t.Logf("%s: %q -> kind=%s action=%q transcript=%q", q.ID, q.Text, resp.Kind, resp.Action, resp.Transcript)
		}
	}
	if correct < 10 {
		t.Fatalf("voice commands executed correctly: %d/16", correct)
	}
}

func TestProcessVoiceQueryEndToEnd(t *testing.T) {
	p := pipeline(t)
	// Full voice QA is the hardest path (ASR errors propagate); require a
	// majority of transcripts to be useful enough for the right answer.
	correct := 0
	for i, q := range kb.VoiceQueries {
		samples, err := asr.SynthesizeText(p.Lexicon(), q.Text, int64(7000+i))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := p.Process(context.Background(), Request{Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Answer == q.Want {
			correct++
		} else {
			t.Logf("%s: transcript %q answer %q want %q", q.ID, resp.Transcript, resp.Answer, q.Want)
		}
	}
	if correct < 11 {
		t.Fatalf("voice QA answered %d/16", correct)
	}
}

func TestRewriteWithEntity(t *testing.T) {
	p := pipeline(t)
	got := p.rewriteWithEntity("when does this restaurant close", "luigis restaurant")
	if got != "when does luigis restaurant close" {
		t.Fatalf("rewrite: %q", got)
	}
	// No "this X": unchanged (lowercased).
	if got := p.rewriteWithEntity("Where is Paris", "x"); got != "where is paris" {
		t.Fatalf("rewrite without deictic: %q", got)
	}
}

func TestServerTextQuery(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	body, ctype, err := BuildJSONQuery(nil, nil, "what is the capital of france")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Answer != "paris" {
		t.Fatalf("server answered %q", r.Answer)
	}
}

func TestServerVoiceImageQuery(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	q := kb.VoiceImageQueries[0]
	samples, err := asr.SynthesizeText(p.Lexicon(), q.Text, 31)
	if err != nil {
		t.Fatal(err)
	}
	scene := vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
	photo := vision.Warp(scene, vision.DefaultWarp(77))
	body, ctype, err := BuildJSONQuery(samples, photo, "")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.MatchedImage != q.ImageID {
		t.Fatalf("matched %q, want %q", r.MatchedImage, q.ImageID)
	}
}

func TestServerErrors(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	// GET rejected.
	resp, err := http.Get(srv.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	// Empty form rejected.
	body, ctype, _ := BuildJSONQuery(nil, nil, "")
	resp, err = http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty form status %d", resp.StatusCode)
	}
	// Garbage body rejected.
	resp, err = http.Post(srv.URL+"/v1/query", "multipart/form-data; boundary=x", bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage status %d", resp.StatusCode)
	}
	// Health endpoint.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatal("healthz")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	im := vision.GenerateScene("png roundtrip", vision.DefaultSceneConfig())
	var buf bytes.Buffer
	if err := encodePNG(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != im.W || got.H != im.H {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	var maxDiff float64
	for i := range im.Pix {
		d := im.Pix[i] - got.Pix[i]
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1.0/128 {
		t.Fatalf("PNG round trip error %v", maxDiff)
	}
	if _, err := DecodePNG(strings.NewReader("not png")); err == nil {
		t.Fatal("garbage PNG must error")
	}
}

func TestServerStatsAndResampling(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(NewServer(p))
	defer srv.Close()

	// A couple of queries to populate /metrics, one of them 32 kHz audio that
	// the server must resample.
	body, ctype, _ := BuildJSONQuery(nil, nil, "what is the capital of spain")
	resp, err := http.Post(srv.URL+"/v1/query", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	samples, err := asr.SynthesizeText(p.Lexicon(), "call mom", 41)
	if err != nil {
		t.Fatal(err)
	}
	// Ship the query at 32 kHz; the server must resample to the
	// front-end's 16 kHz. (Upsampled audio is information-preserving, so
	// recognition should still work; 8 kHz telephone band would degrade
	// the fricatives.)
	high := audio.Resample(samples, 16000, 32000)
	var wav bytes.Buffer
	if err := audio.WriteWAV(&wav, high, 32000); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/query", "application/json", wavQuery(t, wav.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("8 kHz query status %d", resp.StatusCode)
	}
	if r.Transcript == "" {
		t.Fatal("resampled audio produced no transcript")
	}

	// /metrics reflects the served queries.
	m := scrapeSeries(t, srv.URL)
	served := m[`sirius_query_latency_seconds_count{kind="answer"}`] + m[`sirius_query_latency_seconds_count{kind="action"}`]
	if served < 2 {
		t.Fatalf("histograms count %v served queries, want >= 2", served)
	}
	if sum := m[`sirius_query_latency_seconds_sum{kind="answer"}`] + m[`sirius_query_latency_seconds_sum{kind="action"}`]; sum <= 0 {
		t.Fatalf("latency sum %v", sum)
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The pipeline documents itself as safe for concurrent queries; hammer
	// it from several goroutines across all three input paths. Run with
	// -race to verify.
	p := pipeline(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch w % 3 {
				case 0:
					q := kb.VoiceQueries[(w+i)%len(kb.VoiceQueries)]
					if resp, _ := p.Process(context.Background(), Request{Text: q.Text}); resp.Kind != KindAnswer {
						errs <- fmt.Errorf("text query misrouted")
					}
				case 1:
					q := kb.VoiceCommands[(w+i)%len(kb.VoiceCommands)]
					samples, err := asr.SynthesizeText(p.Lexicon(), q.Text, int64(w*100+i))
					if err != nil {
						errs <- err
						continue
					}
					if _, err := p.Process(context.Background(), Request{Samples: samples}); err != nil {
						errs <- err
					}
				default:
					q := kb.VoiceImageQueries[(w+i)%len(kb.VoiceImageQueries)]
					scene := vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig())
					photo := vision.Warp(scene, vision.DefaultWarp(int64(w*10+i)))
					p.Process(context.Background(), Request{Text: q.Text, Image: photo})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTranscriptsByEngine pins how many of the 42 queries of
// kb.AllQueries each engine transcribes exactly, per precision, over two
// sets of recordings (query i synthesized at seed 100+i, the bench's, and
// at the held-out 1000+i), clean and after audio.AddNoise at 20 dB with
// the recording's own seed. Every word ends in an optional silence tail,
// so the bigram weighs word to word, and the GMM reads all 42 in every
// cell but one: at 20 dB "set a reminder" (seed 1011) reads "the a
// reminder", a miss that 6 of 40 noise draws on that recording give. The
// DNN reads what its one 39-d frame allows. Counts move only with the
// models, the graph or the search, so a change that moves one names the
// cell it moved.
//
// A DNN pipeline's recognizer must also give a recognizer built on its
// own from the same models the text and score bit for bit, one-shot and
// streamed, at fp64 and int8, on the clean bench recordings.
func TestTranscriptsByEngine(t *testing.T) {
	type cell struct {
		engine asr.Engine
		prec   asr.Precision
		seed   int64
		snrDB  float64 // 0 means clean
	}
	fp64, int8 := asr.PrecisionFP64, asr.PrecisionInt8
	gmm, dnn := asr.EngineGMM, asr.EngineDNN
	want := map[cell]int{
		{gmm, fp64, 100, 0}: 42, {gmm, fp64, 100, 20}: 42, {gmm, fp64, 1000, 0}: 42, {gmm, fp64, 1000, 20}: 41,
		{dnn, fp64, 100, 0}: 21, {dnn, fp64, 100, 20}: 3, {dnn, fp64, 1000, 0}: 22, {dnn, fp64, 1000, 20}: 1,
		{dnn, int8, 100, 0}: 20, {dnn, int8, 100, 20}: 3, {dnn, int8, 1000, 0}: 22, {dnn, int8, 1000, 20}: 1,
	}
	pipelines := map[asr.Engine]*Pipeline{gmm: pipeline(t)}
	cfg := DefaultConfig()
	cfg.Engine = dnn
	dnnPipeline, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dnnPipeline.Close()
	pipelines[dnn] = dnnPipeline
	qs := kb.AllQueries()
	recordings := map[cell][][]float64{} // by seed and SNR
	for c := range want {
		key := cell{seed: c.seed, snrDB: c.snrDB}
		if recordings[key] != nil {
			continue
		}
		for i, q := range qs {
			samples, err := asr.SynthesizeText(dnnPipeline.Lexicon(), q.Text, c.seed+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if c.snrDB != 0 {
				samples = audio.AddNoise(samples, c.snrDB, c.seed+int64(i))
			}
			recordings[key] = append(recordings[key], samples)
		}
	}
	recognize := func(r *asr.Recognizer, samples []float64, prec asr.Precision) asr.Result {
		t.Helper()
		res, err := r.RecognizePrecision(context.Background(), samples, prec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// The cells run at once: a recognizer serves concurrent queries, and
	// each recognition's result does not depend on what else runs.
	results := map[cell][]asr.Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(want))
	for c := range want {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rs []asr.Result
			for _, samples := range recordings[cell{seed: c.seed, snrDB: c.snrDB}] {
				res, err := pipelines[c.engine].recognizer.RecognizePrecision(context.Background(), samples, c.prec)
				if err != nil {
					errs <- err
					return
				}
				rs = append(rs, res)
			}
			mu.Lock()
			results[c] = rs
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := map[cell]int{}
	for c, rs := range results {
		for i, res := range rs {
			if res.Text == qs[i].Text {
				got[c]++
			}
		}
	}
	for c, n := range want {
		if got[c] != n {
			t.Errorf("%v %s, seeds %d+i, SNR %v dB (0 = clean): %d of %d transcripts exact, want %d", c.engine, c.prec, c.seed, c.snrDB, got[c], len(qs), n)
		}
	}

	own, err := asr.NewRecognizer(dnnPipeline.models, dnn, dnnPipeline.lex, dnnPipeline.lm, DefaultConfig().ASRConfig)
	if err != nil {
		t.Fatal(err)
	}
	bench := recordings[cell{seed: 100}]
	for _, prec := range []asr.Precision{fp64, int8} {
		for i, q := range qs {
			want := recognize(own, bench[i], prec)
			got := results[cell{dnn, prec, 100, 0}][i]
			st, err := dnnPipeline.NewStream(context.Background(), asr.StreamConfig{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(bench[i]); off += 3200 {
				if _, err := st.Push(bench[i][off:min(off+3200, len(bench[i]))]); err != nil {
					t.Fatal(err)
				}
			}
			streamed, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for what, res := range map[string]asr.Result{"one-shot": got, "streamed": streamed} {
				if res.Text != want.Text || math.Float64bits(res.Score) != math.Float64bits(want.Score) {
					t.Fatalf("DNN %s %s %q = (%q, %v), own recognizer (%q, %v)", prec, what, q.Text, res.Text, res.Score, want.Text, want.Score)
				}
			}
		}
	}
}

func TestUnknownImageNotMatched(t *testing.T) {
	// A photo of something outside the database must not be confidently
	// resolved to a database entity.
	p := pipeline(t)
	unknown := vision.GenerateScene("completely unknown storefront", vision.DefaultSceneConfig())
	resp, _ := p.Process(context.Background(), Request{Text: "when does this restaurant close", Image: unknown})
	if resp.MatchedImage != "" {
		t.Fatalf("unknown photo matched %q", resp.MatchedImage)
	}
	// Known photos still match.
	known := vision.Warp(vision.GenerateScene("sun cafe", vision.DefaultSceneConfig()), vision.DefaultWarp(123))
	resp, _ = p.Process(context.Background(), Request{Text: "when does this cafe close", Image: known})
	if resp.MatchedImage != "sun cafe" {
		t.Fatalf("known photo matched %q", resp.MatchedImage)
	}
}
