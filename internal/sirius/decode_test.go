package sirius

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sirius/internal/audio"
	"sirius/internal/envelope"
	"sirius/internal/kb"
	"sirius/internal/vision"
)

// lyingWAV is a small, well-formed WAV whose header declares rate: the
// resampler would size its output as len × 16000 / rate.
func lyingWAV(t testing.TB, rate int) []byte {
	t.Helper()
	var wav bytes.Buffer
	if err := audio.WriteWAV(&wav, make([]float64, 256), rate); err != nil {
		t.Fatal(err)
	}
	return wav.Bytes()
}

// oversizedPNG is a ~70-byte PNG whose header declares w × h: a 1×1
// grayscale image with its IHDR dimensions (and checksum) rewritten, so
// the header parses and the pixel data runs out on the first row.
func oversizedPNG(t testing.TB, w, h uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := png.Encode(&buf, image.NewGray(image.Rect(0, 0, 1, 1))); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// 8-byte signature, then IHDR: length(4) type(4) width(4) height(4) ... crc.
	ihdr := b[8+4 : 8+4+4+13]
	binary.BigEndian.PutUint32(ihdr[4:8], w)
	binary.BigEndian.PutUint32(ihdr[8:12], h)
	binary.BigEndian.PutUint32(b[8+4+4+13:], crc32.ChecksumIEEE(ihdr))
	return b
}

// postHostile POSTs a JSON query body carrying a hostile payload and
// returns the reply's envelope and how many bytes the process allocated
// while the request was served.
func postHostile(t *testing.T, url string, q jsonQuery) (int, envelope.Envelope, uint64) {
	t.Helper()
	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	var env envelope.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("not an envelope: %s (%v)", raw, err)
	}
	return resp.StatusCode, env, after.TotalAlloc - before.TotalAlloc
}

// hostileAllocBudget is far above what serving a small rejected request
// costs and far below what the hostile headers used to cost.
const hostileAllocBudget = 1 << 20

// TestHostileWAVRateRejected: a 0.5 KB WAV declaring 1 Hz used to be
// resampled to 16 000 floats per sample (32 MB here; a 2 MB body made
// 128 GB). Rates outside 8–48 kHz are now a 400 bad_audio, decided before
// the resampler allocates.
func TestHostileWAVRateRejected(t *testing.T) {
	srv := httptest.NewServer(NewServer(pipeline(t)))
	defer srv.Close()
	postHostile(t, srv.URL, jsonQuery{Text: "warm up the connection"})

	for _, rate := range []int{1, 0, minSampleRate - 1, maxSampleRate + 1, 1 << 30} {
		status, env, alloc := postHostile(t, srv.URL, jsonQuery{Audio: lyingWAV(t, rate)})
		if status != http.StatusBadRequest || env.Reason != envelope.ReasonBadAudio {
			t.Fatalf("%d Hz: status %d envelope %+v, want 400 bad_audio", rate, status, env)
		}
		if alloc > hostileAllocBudget {
			t.Fatalf("%d Hz: serving the rejection allocated %d bytes", rate, alloc)
		}
	}
}

// TestHostilePNGDimensionsRejected: a ~70-byte PNG declaring 8192×8192
// used to get its 64 MB pixel buffer before a single pixel was read (50
// 000 × 50 000 made 2.5 GB). Images over maxImagePixels are now a 400
// bad_image, decided from the header alone.
func TestHostilePNGDimensionsRejected(t *testing.T) {
	srv := httptest.NewServer(NewServer(pipeline(t)))
	defer srv.Close()
	postHostile(t, srv.URL, jsonQuery{Text: "warm up the connection"})

	status, env, alloc := postHostile(t, srv.URL, jsonQuery{Text: "what is this", Image: oversizedPNG(t, 8192, 8192)})
	if status != http.StatusBadRequest || env.Reason != envelope.ReasonBadImage {
		t.Fatalf("status %d envelope %+v, want 400 bad_image", status, env)
	}
	if alloc > hostileAllocBudget {
		t.Fatalf("serving the rejection allocated %d bytes", alloc)
	}
}

// FuzzQueryBody drives the /v1/query body decoder directly, with no
// pipeline behind it. It must never panic; every rejection must be a
// reason from the envelope vocabulary with a 4xx status; and an accepted
// body must decode to payloads its own size bounds.
func FuzzQueryBody(f *testing.F) {
	for i, q := range kb.AllQueries() {
		var img *vision.Image
		if q.Class == kb.VoiceImageQuery {
			img = vision.Warp(vision.GenerateScene(q.ImageID, vision.DefaultSceneConfig()), vision.DefaultWarp(int64(200+i)))
		}
		body, _, err := BuildJSONQuery(nil, img, q.Text)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body.Bytes())
	}
	tone := make([]float64, 1600)
	for i := range tone {
		tone[i] = 0.5 * math.Sin(float64(i)/5)
	}
	voice, _, err := BuildJSONQueryPrecision(tone, nil, "", "fp64")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(voice.Bytes())
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	mw.WriteField("text", "what is the capital of france")
	mw.Close()
	f.Add(form.Bytes())
	f.Add([]byte(`{"audio":"UklGRiQAAABXQVZFZm10IBAAAAABAAEAgD4AAAB9AAACABAAZGF0YQAAAAA`))
	f.Add([]byte(`{"image":"iVBORw0KGgo`))
	f.Add([]byte(`{"text":"call mom","precision":"fp16"}`))
	for _, q := range []jsonQuery{{Audio: lyingWAV(f, 1)}, {Text: "what is this", Image: oversizedPNG(f, 50000, 50000)}} {
		body, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	const limit = 64 << 10
	f.Fuzz(func(t *testing.T, body []byte) {
		req, reason, msg := decodeQuery(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit), limit)
		if reason != "" {
			if code := envelope.New(reason, "", msg).Code; code < 400 || code > 499 || msg == "" {
				t.Fatalf("rejected with reason %q (status %d), message %q", reason, code, msg)
			}
			return
		}
		// Base64 WAV carries at most 3/8 sample per body byte, and the
		// lowest accepted rate upsamples it 2×.
		if len(req.Samples) > len(body) {
			t.Fatalf("%d-byte body decoded to %d samples", len(body), len(req.Samples))
		}
		if req.Image != nil && req.Image.W*req.Image.H > maxImagePixels {
			t.Fatalf("accepted a %dx%d image", req.Image.W, req.Image.H)
		}
	})
}
