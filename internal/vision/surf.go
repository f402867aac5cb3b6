package vision

import (
	"sort"

	"sirius/internal/mat"
)

// Keypoint is one detected interest point.
type Keypoint struct {
	X, Y        float64
	Scale       float64 // SURF scale: 1.2 * filterSize / 9
	Response    float64 // Hessian determinant at the maximum
	Orientation float64 // radians, assigned by the descriptor stage
}

// DetectorConfig tunes the fast-Hessian detector.
type DetectorConfig struct {
	// FilterSizes are the box-filter side lengths of the scale stack
	// (must be increasing, length >= 3 so interior scales exist).
	FilterSizes []int
	// Threshold rejects weak extrema.
	Threshold float64
	// MaxKeypoints caps the output (strongest first); 0 = unlimited.
	MaxKeypoints int
}

// DefaultDetector mirrors SURF's first octave.
func DefaultDetector() DetectorConfig {
	return DetectorConfig{
		FilterSizes:  []int{9, 15, 21, 27},
		Threshold:    1e-4,
		MaxKeypoints: 200,
	}
}

// hessianResponse computes the approximated Hessian determinant map for
// one filter size over the given tile region.
func hessianResponse(ii *Integral, size int, t Tile) []float64 {
	w := t.X1 - t.X0
	h := t.Y1 - t.Y0
	resp := make([]float64, w*h)
	lobe := size / 3
	norm := 1.0 / float64(size*size)
	border := size/2 + 1
	for y := t.Y0; y < t.Y1; y++ {
		if y < border || y >= ii.H-border {
			continue
		}
		for x := t.X0; x < t.X1; x++ {
			if x < border || x >= ii.W-border {
				continue
			}
			// Dyy: full (2*lobe-1) x (3*lobe) band with the middle lobe
			// weighted -2 (i.e. whole - 3*middle).
			whole := ii.sum(x-lobe+1, y-(3*lobe-1)/2, x+lobe, y+(3*lobe-1)/2+1)
			mid := ii.sum(x-lobe+1, y-(lobe-1)/2, x+lobe, y+(lobe-1)/2+1)
			dyy := (whole - 3*mid) * norm
			// Dxx: transpose of Dyy.
			wholeX := ii.sum(x-(3*lobe-1)/2, y-lobe+1, x+(3*lobe-1)/2+1, y+lobe)
			midX := ii.sum(x-(lobe-1)/2, y-lobe+1, x+(lobe-1)/2+1, y+lobe)
			dxx := (wholeX - 3*midX) * norm
			// Dxy: four lobe x lobe quadrant boxes.
			dxy := (ii.sum(x+1, y-lobe, x+lobe+1, y) +
				ii.sum(x-lobe, y+1, x, y+lobe+1) -
				ii.sum(x-lobe, y-lobe, x, y) -
				ii.sum(x+1, y+1, x+lobe+1, y+lobe+1)) * norm
			det := dxx*dyy - 0.81*dxy*dxy
			resp[(y-t.Y0)*w+(x-t.X0)] = det
		}
	}
	return resp
}

// DetectKeypoints runs the fast-Hessian detector over the whole image.
// This is the single-threaded baseline of the Suite FE kernel.
func DetectKeypoints(im *Image, cfg DetectorConfig) []Keypoint {
	ii := NewIntegral(im)
	full := Tile{X0: 0, Y0: 0, X1: im.W, Y1: im.H}
	return detectInTile(ii, cfg, full, full)
}

// DetectKeypointsTiled is the multicore port: the image is tiled and
// the tiles' scale stacks and non-max suppression run on the shared mat
// worker pool (paper §4.3.1). Results match the serial version because
// suppression reads responses computed over a tile border margin.
// workers <= 0 uses the pool's configured width.
func DetectKeypointsTiled(im *Image, cfg DetectorConfig, workers, minTile int) []Keypoint {
	tiles := Tiles(im.W, im.H, minTile)
	if workers <= 0 {
		workers = mat.Workers()
	}
	if workers <= 1 || len(tiles) == 1 {
		return DetectKeypoints(im, cfg)
	}
	ii := NewIntegral(im)
	full := Tile{X0: 0, Y0: 0, X1: im.W, Y1: im.H}
	results := make([][]Keypoint, len(tiles))
	mat.ParallelWidth(workers, len(tiles), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = detectInTile(ii, cfg, tiles[i], full)
		}
	})
	var all []Keypoint
	for _, r := range results {
		all = append(all, r...)
	}
	sortKeypoints(all)
	if cfg.MaxKeypoints > 0 && len(all) > cfg.MaxKeypoints {
		all = all[:cfg.MaxKeypoints]
	}
	return all
}

// detectInTile detects maxima whose centers lie in `detect`, computing
// responses over detect expanded by one pixel (clamped to bounds) so
// suppression at tile edges is exact.
func detectInTile(ii *Integral, cfg DetectorConfig, detect, bounds Tile) []Keypoint {
	margin := 1
	comp := Tile{
		X0: maxInt(bounds.X0, detect.X0-margin),
		Y0: maxInt(bounds.Y0, detect.Y0-margin),
		X1: minInt(bounds.X1, detect.X1+margin),
		Y1: minInt(bounds.Y1, detect.Y1+margin),
	}
	w := comp.X1 - comp.X0

	stack := make([][]float64, len(cfg.FilterSizes))
	for si, size := range cfg.FilterSizes {
		stack[si] = hessianResponse(ii, size, comp)
	}
	var kps []Keypoint
	at := func(s, x, y int) float64 { return stack[s][(y-comp.Y0)*w+(x-comp.X0)] }
	for s := 1; s < len(cfg.FilterSizes)-1; s++ {
		for y := detect.Y0; y < detect.Y1; y++ {
			if y <= comp.Y0 || y >= comp.Y1-1 {
				continue
			}
			for x := detect.X0; x < detect.X1; x++ {
				if x <= comp.X0 || x >= comp.X1-1 {
					continue
				}
				v := at(s, x, y)
				if v < cfg.Threshold {
					continue
				}
				if !isLocalMax(at, s, x, y, v) {
					continue
				}
				kps = append(kps, Keypoint{
					X:        float64(x),
					Y:        float64(y),
					Scale:    1.2 * float64(cfg.FilterSizes[s]) / 9,
					Response: v,
				})
			}
		}
	}

	sortKeypoints(kps)
	if cfg.MaxKeypoints > 0 && len(kps) > cfg.MaxKeypoints {
		kps = kps[:cfg.MaxKeypoints]
	}
	return kps
}

func isLocalMax(at func(s, x, y int) float64, s, x, y int, v float64) bool {
	for ds := -1; ds <= 1; ds++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if ds == 0 && dy == 0 && dx == 0 {
					continue
				}
				if at(s+ds, x+dx, y+dy) >= v {
					return false
				}
			}
		}
	}
	return true
}

func sortKeypoints(kps []Keypoint) {
	sort.Slice(kps, func(i, j int) bool {
		if kps[i].Response != kps[j].Response {
			return kps[i].Response > kps[j].Response
		}
		if kps[i].Y != kps[j].Y {
			return kps[i].Y < kps[j].Y
		}
		return kps[i].X < kps[j].X
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
