package hmm

import (
	"context"
	"reflect"
	"testing"
)

// TestPushRanked: the ranking keeps the best `limit` candidates, best
// first, and a candidate goes behind (or, full, loses to) its equals.
func TestPushRanked(t *testing.T) {
	x := make([]xcand, 0, 3)
	for seq, s := range []float64{3, 1, 5, 3, 4, 3} {
		x = pushRanked(x, xcand{score: s, seq: int32(seq)}, 3)
	}
	want := []xcand{{score: 5, seq: 2}, {score: 4, seq: 4}, {score: 3, seq: 0}}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("ranking: %+v, want %+v", x, want)
	}
}

// TestNBestAdvanceSteadyStateAllocs pins the frame step's contract, as
// TestStepZeroAllocSteadyState does, on a graph whose words end in
// silence tails.
func TestNBestAdvanceSteadyStateAllocs(t *testing.T) {
	requireAllocFreeFrames(t, buildToyWithSilence)
}

// requireAllocFreeFrames checks that, once the tokens, work lists and
// arena slabs exist, advancing a session on the toy task build gives a
// frame (scoring included) performs zero heap allocations.
func requireAllocFreeFrames(t *testing.T, build func(*testing.T) (*Lexicon, *Bigram)) {
	t.Helper()
	dec, frames := toyDecoderOf(t, build, []string{"s", "t", "aa", "p", "k", "ow"}, 3)
	s := dec.NewSession()
	defer s.release()
	if err := s.Advance(context.Background(), frames); err != nil { // grow the arena
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		// Reset the arena so repeated frames bump-allocate from the slabs
		// already grown; the frame loop never follows an old node.
		s.sc.arena.reset()
		if err := s.Advance(ctx, frames[:1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame allocates %v per op, want 0", allocs)
	}
	if s.bestState < 0 {
		t.Fatal("no token left alive: the measurement relaxed nothing")
	}
}
