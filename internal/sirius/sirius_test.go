package sirius

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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
		{"recognize GMM fp64", len(recordings), recognize(p, asr.PrecisionFP64), nil, 73},
		{"recognize DNN fp64", len(recordings), recognize(dnn, asr.PrecisionFP64), nil, 505},
		{"recognize DNN int8", len(recordings), recognize(dnn, asr.PrecisionInt8), nil, 488},
		{"leaf shard.Exec", 1, func(int) { shard.Exec(leaf, req, 0, 2) }, nil, 32},
		{"stream Push chunk", len(pushes) - 1, pushChunks(pushes), pushChunks(warmPushes), 20},
		{"stream Finish", len(streams) - 1, finishStreams(streams), finishStreams(warmStreams), 59},
	} {
		// AllocsPerRun makes one uncounted call first, so row.runs runs
		// count each input of the cycle once (the stream rows count each
		// but the first, which the uncounted call takes). Before it the
		// same calls, i = 0..runs, run once uncounted, so each row starts
		// from the pool state its own inputs leave and not the one the
		// rows before it left.
		warm := row.warm
		if warm == nil {
			warm = row.call
		}
		for i := 0; i <= row.runs; i++ {
			warm(i)
		}
		i := 0
		n := testing.AllocsPerRun(row.runs, func() {
			row.call(i)
			i++
		})
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

// TestRescoringByEngine pins what the trigram's second pass does on each
// engine, over the 42 bench recordings (query i of kb.AllQueries at
// synthesis seed 100+i). On the GMM it picks "of" over its homophone
// "off", which share the pronunciation [ow f]: against a recognizer never
// given the trigram it fixes 11 transcripts and breaks 1 ("turn off the
// lights"). On the DNN the second pass fixed none and broke 4 of these, so
// a DNN pipeline decodes in one pass: one-shot and streamed, at fp64 and
// int8, its text and score are bit-identical to a never-rescored
// recognizer's, and it gets no fewer transcripts exactly right than the
// two-pass decode did (3 of 42 at either precision; the one pass gets 7).
func TestRescoringByEngine(t *testing.T) {
	const gmmFixes, gmmBreaks, dnnTwoPassExact = 11, 1, 3
	gmm := pipeline(t)
	qs := kb.AllQueries()
	recordings := make([][]float64, len(qs))
	for i, q := range qs {
		var err error
		if recordings[i], err = asr.SynthesizeText(gmm.Lexicon(), q.Text, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	neverRescored := func(p *Pipeline, engine asr.Engine) *asr.Recognizer {
		t.Helper()
		r, err := asr.NewRecognizer(p.models, engine, p.lex, p.lm, DefaultConfig().ASRConfig)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	recognize := func(r *asr.Recognizer, samples []float64, prec asr.Precision) asr.Result {
		t.Helper()
		res, err := r.RecognizePrecision(context.Background(), samples, prec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	onePass := neverRescored(gmm, asr.EngineGMM)
	fixes, breaks := 0, 0
	for i, q := range qs {
		one, two := recognize(onePass, recordings[i], asr.PrecisionFP64), recognize(gmm.recognizer, recordings[i], asr.PrecisionFP64)
		switch {
		case one.Text != q.Text && two.Text == q.Text:
			fixes++
		case one.Text == q.Text && two.Text != q.Text:
			breaks++
		}
	}
	if fixes != gmmFixes || breaks != gmmBreaks {
		t.Fatalf("GMM second pass fixes %d and breaks %d transcripts, want %d and %d", fixes, breaks, gmmFixes, gmmBreaks)
	}

	cfg := DefaultConfig()
	cfg.Engine = asr.EngineDNN
	dnn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dnn.Close()
	plain := neverRescored(dnn, asr.EngineDNN)
	for _, prec := range []asr.Precision{asr.PrecisionFP64, asr.PrecisionInt8} {
		exact := 0
		for i, q := range qs {
			want := recognize(plain, recordings[i], prec)
			got := recognize(dnn.recognizer, recordings[i], prec)
			st, err := dnn.NewStream(context.Background(), asr.StreamConfig{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(recordings[i]); off += 3200 {
				if _, err := st.Push(recordings[i][off:min(off+3200, len(recordings[i]))]); err != nil {
					t.Fatal(err)
				}
			}
			streamed, err := st.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for what, res := range map[string]asr.Result{"one-shot": got, "streamed": streamed} {
				if res.Text != want.Text || math.Float64bits(res.Score) != math.Float64bits(want.Score) {
					t.Fatalf("DNN %s %s %q = (%q, %v), never rescored (%q, %v)", prec, what, q.Text, res.Text, res.Score, want.Text, want.Score)
				}
			}
			if got.Text == q.Text {
				exact++
			}
		}
		t.Logf("DNN %s: %d of %d transcripts exact in one pass", prec, exact, len(qs))
		if exact < dnnTwoPassExact {
			t.Fatalf("DNN %s: %d transcripts exact, fewer than the two-pass decode's %d", prec, exact, dnnTwoPassExact)
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
