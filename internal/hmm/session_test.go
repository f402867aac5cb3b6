package hmm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func toyDecoder(t *testing.T, phones []string, framesPerState int) (*Decoder, [][]float64) {
	t.Helper()
	lex, lm := buildToy(t)
	cfg := DefaultConfig()
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, frames := synthEmissions(g, phones, framesPerState)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dec, frames
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

// TestSessionParity: a 1-best session advanced in chunks of any size
// produces exactly the Result of a one-shot 1-best decode on the same
// frames.
func TestSessionParity(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	want := first(dec.DecodeNBest(frames, 1))
	if got := strings.Join(want.Words, " "); got != "stop go" {
		t.Fatalf("one-shot decoded %q, want \"stop go\"", got)
	}
	for _, chunk := range []int{1, 2, 3, 5, 7, len(frames)} {
		s := dec.NewNBestSession(1)
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
		requireSameResult(t, want, first(s.Finish()))
	}
}

// TestSessionBestWordsStabilizes: the committed-word prefix must reach
// the first word well before end of utterance, and BestWords must never
// regress once the prefix is correct on this easy task.
func TestSessionBestWordsStabilizes(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p", "k", "ow"}, 4)
	s := dec.NewNBestSession(1)
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
	res := first(s.Finish())
	if got := strings.Join(res.Words, " "); got != "stop go" {
		t.Fatalf("final = %q, want \"stop go\"", got)
	}
}

// TestSessionEmpty: no frames consumed gives no hypothesis, and empty
// Advance calls are no-ops.
func TestSessionEmpty(t *testing.T) {
	dec, _ := toyDecoder(t, []string{"s"}, 1)
	s := dec.NewNBestSession(1)
	if err := s.Advance(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if s.BestWords() != nil {
		t.Fatal("BestWords before any frame must be nil")
	}
	if res := first(s.Finish()); res.Frames != 0 || len(res.Words) != 0 {
		t.Fatalf("zero-frame result = %+v", res)
	}
}

// TestSessionCanceledContext: Advance surfaces ctx errors.
func TestSessionCanceledContext(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p"}, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := dec.NewNBestSession(1)
	if err := s.Advance(ctx, frames); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFailedAdvanceReleasesScratch: an Advance the context cancels ends
// the session and hands its scratch straight back to the graph's pool,
// and the dead session then refuses Advance and answers BestWords and
// Finish empty instead of panicking.
func TestFailedAdvanceReleasesScratch(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p"}, 3)
	s := dec.NewNBestSession(1)
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
	if got, _ := dec.graph.nbestPool.Get().(*nbestScratch); !raceEnabled && got != sc {
		t.Fatal("the canceled session's scratch is not back in the graph's pool")
	}
	if err := s.Advance(context.Background(), frames); err == nil {
		t.Fatal("Advance on a failed session succeeded")
	}
	if s.BestWords() != nil || s.Finish() != nil {
		t.Fatal("a failed session reported hypotheses")
	}
}

// TestNBestSessionParity: an NBestSession advanced in chunks finishes
// with exactly the hypotheses of a one-shot DecodeNBest.
func TestNBestSessionParity(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	for _, n := range []int{1, 3} {
		want := dec.DecodeNBest(frames, n)
		if len(want) == 0 {
			t.Fatalf("n=%d: one-shot n-best empty", n)
		}
		for _, chunk := range []int{1, 4, len(frames)} {
			s := dec.NewNBestSession(n)
			for off := 0; off < len(frames); off += chunk {
				end := off + chunk
				if end > len(frames) {
					end = len(frames)
				}
				if err := s.Advance(context.Background(), frames[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Finish()
			if len(got) != len(want) {
				t.Fatalf("n=%d chunk=%d: %d hypotheses, want %d", n, chunk, len(got), len(want))
			}
			for i := range want {
				requireSameResult(t, want[i], got[i])
			}
		}
	}
}

// TestNBestSessionBestWords: partials are available from the n-best
// beam too (what a rescoring recognizer streams).
func TestNBestSessionBestWords(t *testing.T) {
	dec, frames := toyDecoder(t, []string{"s", "t", "aa", "p", "k", "ow"}, 4)
	s := dec.NewNBestSession(2)
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
		t.Fatal("n-best partial \"stop\" never appeared")
	}
	if s.Finish() == nil {
		t.Fatal("Finish returned no hypotheses")
	}
}
