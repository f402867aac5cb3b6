package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntegralSumMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(20), 1+rng.Intn(20)
		im := NewImage(w, h)
		for i := range im.Pix {
			im.Pix[i] = rng.Float64()
		}
		ii := NewIntegral(im)
		x0, y0 := rng.Intn(w), rng.Intn(h)
		x1, y1 := x0+rng.Intn(w-x0)+1, y0+rng.Intn(h-y0)+1
		var want float64
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				want += im.Pix[y*w+x]
			}
		}
		return math.Abs(ii.sum(x0, y0, x1, y1)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntegralSumClipsAndEmpty(t *testing.T) {
	im := NewImage(4, 4)
	for i := range im.Pix {
		im.Pix[i] = 1
	}
	ii := NewIntegral(im)
	if got := ii.sum(-5, -5, 100, 100); got != 16 {
		t.Fatalf("clipped sum = %v", got)
	}
	if got := ii.sum(2, 2, 2, 3); got != 0 {
		t.Fatalf("empty rect = %v", got)
	}
	if got := ii.sum(3, 3, 1, 1); got != 0 {
		t.Fatalf("inverted rect = %v", got)
	}
}

func TestImageAtClamps(t *testing.T) {
	im := NewImage(2, 2)
	im.Pix[0], im.Pix[3] = 5, 7
	if im.at(-3, -3) != 5 || im.at(10, 10) != 7 {
		t.Fatal("At must clamp to border")
	}
}

func TestHaarResponses(t *testing.T) {
	// A vertical step edge: haarX large, haarY ~ 0.
	im := NewImage(32, 32)
	for y := 0; y < 32; y++ {
		for x := 16; x < 32; x++ {
			im.Pix[y*32+x] = 1
		}
	}
	ii := NewIntegral(im)
	hx := ii.haarX(16, 16, 8)
	hy := ii.haarY(16, 16, 8)
	if hx <= 0 {
		t.Fatalf("HaarX on rising edge = %v, want > 0", hx)
	}
	if math.Abs(hy) > 1e-9 {
		t.Fatalf("HaarY on vertical edge = %v, want 0", hy)
	}
}

func TestGenerateSceneDeterministicAndDistinct(t *testing.T) {
	cfg := DefaultSceneConfig()
	a1 := GenerateScene("luigis restaurant", cfg)
	a2 := GenerateScene("luigis restaurant", cfg)
	b := GenerateScene("city museum", cfg)
	var same, diff bool
	for i := range a1.Pix {
		if a1.Pix[i] != a2.Pix[i] {
			t.Fatal("same label must give identical scenes")
		}
		if a1.Pix[i] != b.Pix[i] {
			diff = true
		}
	}
	same = true
	if !same || !diff {
		t.Fatal("different labels must differ")
	}
	for _, v := range a1.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %v", v)
		}
	}
}

func TestDetectKeypointsFindsBlob(t *testing.T) {
	// A single bright blob must yield a keypoint near its center.
	im := NewImage(64, 64)
	cx, cy, sigma := 32.0, 32.0, 4.0
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
			im.Pix[y*64+x] = math.Exp(-d2 / (2 * sigma * sigma))
		}
	}
	kps := DetectKeypoints(NewIntegral(im), DefaultDetector(), 1)
	if len(kps) == 0 {
		t.Fatal("no keypoints on a blob")
	}
	best := kps[0]
	if math.Abs(best.X-cx) > 3 || math.Abs(best.Y-cy) > 3 {
		t.Fatalf("keypoint at (%v, %v), want near (32, 32)", best.X, best.Y)
	}
}

func TestDetectKeypointsEmptyOnFlat(t *testing.T) {
	im := NewImage(64, 64)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	if kps := DetectKeypoints(NewIntegral(im), DefaultDetector(), 1); len(kps) != 0 {
		t.Fatalf("flat image produced %d keypoints", len(kps))
	}
}

// TestDetectTiledMatchesSerial pins the FE kernel's width invariance:
// the tiled port at every width gives the single-tile baseline's
// keypoints (position, scale, response, order) bit for bit.
func TestDetectTiledMatchesSerial(t *testing.T) {
	ii := NewIntegral(GenerateScene("tile test scene", DefaultSceneConfig()))
	cfg := DefaultDetector()
	serial := DetectKeypoints(ii, cfg, 1)
	if len(Tiles(ii.W, ii.H)) < 4 {
		t.Fatalf("the scene must span several tiles")
	}
	for _, width := range []int{2, 3, 4, 0} {
		tiled := DetectKeypoints(ii, cfg, width)
		if len(tiled) != len(serial) {
			t.Fatalf("width %d: %d keypoints vs width 1 %d", width, len(tiled), len(serial))
		}
		for i := range serial {
			if serial[i] != tiled[i] {
				t.Fatalf("width %d keypoint %d: %+v != %+v", width, i, tiled[i], serial[i])
			}
		}
	}
}

func TestTiles(t *testing.T) {
	ts := Tiles(128, 128)
	if len(ts) != 4 {
		t.Fatalf("128/50 must give 2x2 tiles, got %d (%v)", len(ts), ts)
	}
	// Tiles must partition the image exactly.
	covered := make([]bool, 128*128)
	for _, tl := range ts {
		for y := tl.Y0; y < tl.Y1; y++ {
			for x := tl.X0; x < tl.X1; x++ {
				if covered[y*128+x] {
					t.Fatalf("pixel (%d,%d) covered twice", x, y)
				}
				covered[y*128+x] = true
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("pixel %d uncovered", i)
		}
	}
	if got := Tiles(30, 30); len(got) != 1 {
		t.Fatalf("small image must be one tile, got %v", got)
	}
	if Tile.String(ts[0]) == "" {
		t.Fatal("Tile.String")
	}
}

func TestDescriptorsNormalizedAndComplete(t *testing.T) {
	im := GenerateScene("descriptor scene", DefaultSceneConfig())
	descs := extract(im, DefaultDetector())
	if len(descs) < 10 {
		t.Fatalf("only %d descriptors", len(descs))
	}
	for _, d := range descs {
		var norm float64
		for _, v := range d.Vector {
			norm += v * v
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("descriptor norm %v != 1", norm)
		}
	}
}

// extract is the image pipeline at width 1: detect, then describe.
func extract(im *Image, cfg DetectorConfig) []Descriptor {
	ii := NewIntegral(im)
	return DescribeAll(ii, DetectKeypoints(ii, cfg, 1), 1)
}

// TestDescribeAllParallelMatchesSerial pins the FD kernel's width
// invariance: every width gives the width-1 descriptors, oriented
// keypoint and vector, bit for bit and in keypoint order.
func TestDescribeAllParallelMatchesSerial(t *testing.T) {
	ii := NewIntegral(GenerateScene("parallel desc scene", DefaultSceneConfig()))
	kps := DetectKeypoints(ii, DefaultDetector(), 1)
	serial := DescribeAll(ii, kps, 1)
	for _, width := range []int{2, 3, 4, 0} {
		par := DescribeAll(ii, kps, width)
		if len(par) != len(serial) {
			t.Fatalf("width %d: %d descriptors vs width 1 %d", width, len(par), len(serial))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("width %d: descriptor %d differs", width, i)
			}
		}
	}
}

func TestDescriptorInvarianceUnderWarp(t *testing.T) {
	// Descriptors of the same scene under a small warp must be closer to
	// each other than to descriptors of a different scene.
	cfg := DefaultDetector()
	a := GenerateScene("invariance scene A", DefaultSceneConfig())
	aw := Warp(a, DefaultWarp(5))
	b := GenerateScene("invariance scene B", DefaultSceneConfig())
	da := extract(a, cfg)
	daw := extract(aw, cfg)
	db := extract(b, cfg)
	if len(da) == 0 || len(daw) == 0 || len(db) == 0 {
		t.Fatal("descriptor sets empty")
	}
	nnDist := func(from, to []Descriptor) float64 {
		var total float64
		for _, f := range from {
			best := math.Inf(1)
			for _, g := range to {
				var d float64
				for i := range f.Vector {
					diff := f.Vector[i] - g.Vector[i]
					d += diff * diff
				}
				if d < best {
					best = d
				}
			}
			total += math.Sqrt(best)
		}
		return total / float64(len(from))
	}
	same := nnDist(daw, da)
	cross := nnDist(daw, db)
	if same >= cross {
		t.Fatalf("warped-to-original distance %v not below cross-scene %v", same, cross)
	}
}

func TestWarpIdentity(t *testing.T) {
	im := GenerateScene("warp id", DefaultSceneConfig())
	id := Warp(im, WarpParams{Scale: 1, NoiseStd: 0, Seed: 1})
	var maxDiff float64
	for i := range im.Pix {
		if d := math.Abs(im.Pix[i] - id.Pix[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-9 {
		t.Fatalf("identity warp changed pixels by %v", maxDiff)
	}
}

// BenchmarkDetectKeypoints times the FE kernel's width-1 baseline; the
// integral image is built once, outside the loop.
func BenchmarkDetectKeypoints(b *testing.B) {
	ii := NewIntegral(GenerateScene("bench scene", DefaultSceneConfig()))
	cfg := DefaultDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DetectKeypoints(ii, cfg, 1)
	}
}

// BenchmarkDescribeAll times the FD kernel's width-1 baseline.
func BenchmarkDescribeAll(b *testing.B) {
	ii := NewIntegral(GenerateScene("bench scene", DefaultSceneConfig()))
	kps := DetectKeypoints(ii, DefaultDetector(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DescribeAll(ii, kps, 1)
	}
}
