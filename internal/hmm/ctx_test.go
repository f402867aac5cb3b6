package hmm

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// cancelingScorer wraps tableScorer and cancels the decode's context
// once a fixed number of frames have been scored, simulating a deadline
// firing mid-utterance without any wall-clock dependence. Like a real
// scorer it gives up on a block whose request has died and returns nil.
type cancelingScorer struct {
	inner       *tableScorer
	calls       int // frames scored
	cancelAfter int
	cancel      context.CancelFunc
}

func (cs *cancelingScorer) Score(ctx context.Context, frames [][]float64) [][]float64 {
	out := make([][]float64, 0, len(frames))
	for _, f := range frames {
		cs.calls++
		if cs.calls == cs.cancelAfter {
			cs.cancel()
		}
		if ctx.Err() != nil {
			return nil
		}
		out = append(out, cs.inner.table[int(f[0])])
	}
	return out
}
func (cs *cancelingScorer) NumSenones() int { return cs.inner.NumSenones() }

// longToyUtterance compiles the toy graph and synthesizes a long
// utterance ("stop go" repeated) so a mid-decode abort has plenty of
// frames left to skip.
func longToyUtterance(t *testing.T, cfg Config) (*Graph, [][]float64, [][]float64) {
	t.Helper()
	lex, lm := buildToy(t)
	g, err := CompileGraph(lex, lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var phones []string
	for i := 0; i < 20; i++ {
		phones = append(phones, "s", "t", "aa", "p", "k", "ow")
	}
	table, frames := synthEmissions(g, phones, 3)
	return g, table, frames
}

func TestDecodeContextAbortsMidUtterance(t *testing.T) {
	cfg := DefaultConfig()
	g, table, frames := longToyUtterance(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancelingScorer{
		inner:       &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone},
		cancelAfter: 40,
		cancel:      cancel,
	}
	dec, err := NewDecoder(g, cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dec.DecodeContext(ctx, frames)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Words) != 0 || res.Frames != 0 {
		t.Fatalf("aborted decode must return a zero Result, got %+v", res)
	}
	// The abort must land within one check interval of the cancellation:
	// the remaining ~1000 frames of the utterance are never scored.
	if max := cs.cancelAfter + ctxCheckInterval; cs.calls > max {
		t.Fatalf("scored %d frames after cancellation at call %d (check interval %d, utterance %d frames)",
			cs.calls, cs.cancelAfter, ctxCheckInterval, len(frames))
	}
	// The decoder must still be usable after an abort: a fresh decode on
	// the same scratch recovers the word sequence.
	dec2, err := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := dec2.Decode(frames)
	if len(full.Words) == 0 || full.Words[0] != "stop" {
		t.Fatalf("full decode after abort broken: %+v", full)
	}
}

func TestDecodeContextPreCanceled(t *testing.T) {
	cfg := DefaultConfig()
	g, table, frames := longToyUtterance(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cs := &cancelingScorer{
		inner:  &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone},
		cancel: func() {},
	}
	dec, err := NewDecoder(g, cs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeContext(ctx, frames); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cs.calls != 0 {
		t.Fatalf("pre-canceled decode scored %d frames, want 0", cs.calls)
	}
}

func TestDecodeContextLiveMatchesDecode(t *testing.T) {
	cfg := DefaultConfig()
	g, table, frames := longToyUtterance(t, cfg)
	mk := func() *Decoder {
		dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	plain := mk().Decode(frames)
	withCtx, err := mk().DecodeContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(plain.Words, " ") != strings.Join(withCtx.Words, " ") || plain.Score != withCtx.Score {
		t.Fatalf("DecodeContext diverged from Decode: %+v vs %+v", withCtx, plain)
	}
}

// expiringCtx reports cancellation from its nth Err poll on: a deadline
// that fires between two frames of the search, not inside the scorer.
type expiringCtx struct {
	context.Context
	polls, after int
}

func (c *expiringCtx) Err() error {
	if c.polls++; c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestAdvanceChecksContextBetweenFrames: with the whole utterance scored
// in one block, the search still polls ctx every ctxCheckInterval frames
// and stops within one interval of the deadline.
func TestAdvanceChecksContextBetweenFrames(t *testing.T) {
	cfg := DefaultConfig()
	g, table, frames := longToyUtterance(t, cfg)
	dec, err := NewDecoder(g, &tableScorer{table: table, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const after = 5 // two polls around scoring, then frames 8, 16, 24; frame 32 is refused
	s := dec.NewSession()
	defer s.release()
	ctx := &expiringCtx{Context: context.Background(), after: after}
	if err := s.Advance(ctx, frames); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := (after - 1) * ctxCheckInterval; s.Frames() != want {
		t.Fatalf("stopped after %d of %d frames, want %d", s.Frames(), len(frames), want)
	}
}

// faultyScorer returns what it is told to, whatever it was asked.
type faultyScorer struct {
	rows     [][]float64
	nSenones int
}

func (fs *faultyScorer) Score(context.Context, [][]float64) [][]float64 { return fs.rows }
func (fs *faultyScorer) NumSenones() int                                { return fs.nSenones }

// TestAdvanceRejectsScorerFaults: nil or a wrong row count from the
// scorer while the context is live is an error from Advance, and a
// decode then has no hypothesis — never a panic, never a quiet retry
// frame by frame.
func TestAdvanceRejectsScorerFaults(t *testing.T) {
	cfg := DefaultConfig()
	g, table, frames := longToyUtterance(t, cfg)
	for what, rows := range map[string][][]float64{"nil": nil, "short": table[:3], "long": table[:5]} {
		dec, err := NewDecoder(g, &faultyScorer{rows: rows, nSenones: len(g.Phones()) * StatesPerPhone}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.NewSession().Advance(context.Background(), frames[:4]); err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("%s rows: Advance returned %v, want a scorer error", what, err)
		}
		if res, err := dec.DecodeContext(context.Background(), frames[:4]); err == nil || res.Frames != 0 || res.Words != nil {
			t.Fatalf("%s rows: decode returned %+v, %v, want a scorer error", what, res, err)
		}
	}
}
