package hmm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// toyTask compiles buildToy's task and a scorer that favors the senones
// of phones, framesPerState frames each, over the frames it returns.
func toyTask(t *testing.T, phones []string, framesPerState int) (*Graph, Scorer, [][]float64) {
	t.Helper()
	return toyTaskOf(t, buildToy, phones, framesPerState)
}

// toyTaskOf is toyTask on the toy task build gives.
func toyTaskOf(t *testing.T, build func(*testing.T) (*Lexicon, *Bigram), phones []string, framesPerState int) (*Graph, Scorer, [][]float64) {
	t.Helper()
	lex, lm := build(t)
	g, err := CompileGraph(lex, lm, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	table, frames := synthEmissions(g, phones, framesPerState)
	return g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, frames
}

// newSession starts a search of g under scorer.
func newSession(t *testing.T, g *Graph, scorer Scorer) *Session {
	t.Helper()
	s, err := g.NewSession(scorer)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func requireSameResult(t *testing.T, want, got Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Words, got.Words) {
		t.Fatalf("words = %v, want %v", got.Words, want.Words)
	}
	if math.Float64bits(want.Score) != math.Float64bits(got.Score) {
		t.Fatalf("score = %v, want %v (not bit-identical)", got.Score, want.Score)
	}
	if want.Frames != got.Frames {
		t.Fatalf("frames = %d, want %d", got.Frames, want.Frames)
	}
}

// finish is s's hypothesis, or a zero Result when it has none.
func finish(s *Session) Result {
	res, _ := s.Finish()
	return res
}

// TestSessionParity: a session advanced in chunks of any size produces
// exactly the Result of a one-shot decode on the same frames.
func TestSessionParity(t *testing.T) {
	g, scorer, frames := toyTask(t, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	want := g.Decode(scorer, frames)
	if got := strings.Join(want.Words, " "); got != "stop go" {
		t.Fatalf("one-shot decoded %q, want \"stop go\"", got)
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, len(frames)} {
		s := newSession(t, g, scorer)
		for off := 0; off < len(frames); off += chunk {
			end := off + chunk
			if end > len(frames) {
				end = len(frames)
			}
			if err := s.Advance(context.Background(), frames[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		if s.Frames() != len(frames) {
			t.Fatalf("chunk %d: consumed %d frames, want %d", chunk, s.Frames(), len(frames))
		}
		requireSameResult(t, want, finish(s))
	}
}

// TestSessionBestWordsStabilizes: the committed-word prefix must reach
// the first word well before end of utterance, and BestWords must never
// regress once the prefix is correct on this easy task.
func TestSessionBestWordsStabilizes(t *testing.T) {
	g, scorer, frames := toyTask(t, []string{"s", "t", "aa", "p", "k", "ow"}, 4)
	s := newSession(t, g, scorer)
	firstSeen := -1
	for f := range frames {
		if err := s.Advance(context.Background(), frames[f:f+1]); err != nil {
			t.Fatal(err)
		}
		w := strings.Join(s.BestWords(), " ")
		if w == "stop" && firstSeen < 0 {
			firstSeen = f
		}
	}
	if firstSeen < 0 {
		t.Fatal("partial \"stop\" never appeared before end of utterance")
	}
	if firstSeen >= len(frames)-1 {
		t.Fatalf("partial appeared only on the last frame (%d)", firstSeen)
	}
	res := finish(s)
	if got := strings.Join(res.Words, " "); got != "stop go" {
		t.Fatalf("final = %q, want \"stop go\"", got)
	}
}

// TestSessionEmpty: no frames consumed gives no hypothesis, and empty
// Advance calls are no-ops.
func TestSessionEmpty(t *testing.T) {
	g, scorer, _ := toyTask(t, []string{"s"}, 1)
	s := newSession(t, g, scorer)
	if err := s.Advance(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if s.BestWords() != nil {
		t.Fatal("BestWords before any frame must be nil")
	}
	if res := finish(s); res.Frames != 0 || len(res.Words) != 0 {
		t.Fatalf("zero-frame result = %+v", res)
	}
}

// TestSessionCanceledContext: Advance surfaces ctx errors.
func TestSessionCanceledContext(t *testing.T) {
	g, scorer, frames := toyTask(t, []string{"s", "t", "aa", "p"}, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSession(t, g, scorer)
	if err := s.Advance(ctx, frames); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFailedAdvanceReleasesScratch: an Advance the context cancels ends
// the session and hands its scratch straight back to the graph's pool,
// and the dead session then refuses Advance and answers BestWords and
// Finish empty instead of panicking.
func TestFailedAdvanceReleasesScratch(t *testing.T) {
	g, scorer, frames := toyTask(t, []string{"s", "t", "aa", "p"}, 3)
	s := newSession(t, g, scorer)
	if err := s.Advance(context.Background(), frames[:4]); err != nil {
		t.Fatal(err)
	}
	sc := s.sc
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Advance(ctx, frames[4:]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.sc != nil {
		t.Fatal("a canceled session still holds its scratch")
	}
	// The race detector's sync.Pool drops a quarter of what is put in it.
	if got, _ := g.pool.Get().(*scratch); !raceEnabled && got != sc {
		t.Fatal("the canceled session's scratch is not back in the graph's pool")
	}
	if err := s.Advance(context.Background(), frames); err == nil {
		t.Fatal("Advance on a failed session succeeded")
	}
	if _, ok := s.Finish(); s.BestWords() != nil || ok {
		t.Fatal("a failed session reported a hypothesis")
	}
}

// TestSessionParityWithSilenceTails: on a graph whose words end in silence tails, a
// session advanced in chunks finishes with exactly the one-shot decode,
// and both read the words back without the silence between them.
func TestSessionParityWithSilenceTails(t *testing.T) {
	g, scorer, frames := toyTaskOf(t, buildToyWithSilence, []string{"s", "t", "aa", "p", "sil", "k", "ow", "sil"}, 3)
	want := g.Decode(scorer, frames)
	if got := strings.Join(want.Words, " "); got != "stop go" {
		t.Fatalf("one-shot decoded %q, want \"stop go\"", got)
	}
	for _, chunk := range []int{1, 4, len(frames)} {
		s := newSession(t, g, scorer)
		for off := 0; off < len(frames); off += chunk {
			if err := s.Advance(context.Background(), frames[off:min(off+chunk, len(frames))]); err != nil {
				t.Fatal(err)
			}
		}
		requireSameResult(t, want, finish(s))
	}
}

// TestSessionBestWordsWithSilenceTails: with silence tails, a word is committed to
// the partial once its token crosses into the next word, whichever exit
// it left from: "stop" appears while "go" is being decoded.
func TestSessionBestWordsWithSilenceTails(t *testing.T) {
	g, scorer, frames := toyTaskOf(t, buildToyWithSilence, []string{"s", "t", "aa", "p", "sil", "k", "ow"}, 4)
	s := newSession(t, g, scorer)
	sawStop := false
	for f := range frames {
		if err := s.Advance(context.Background(), frames[f:f+1]); err != nil {
			t.Fatal(err)
		}
		if strings.Join(s.BestWords(), " ") == "stop" {
			sawStop = true
		}
	}
	if !sawStop {
		t.Fatal("partial \"stop\" never appeared")
	}
	if got := strings.Join(finish(s).Words, " "); got != "stop go" {
		t.Fatalf("final = %q, want \"stop go\"", got)
	}
}
