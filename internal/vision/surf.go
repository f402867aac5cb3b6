package vision

import (
	"slices"
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

// filterSizes are the box-filter side lengths of the fast-Hessian
// detector's scale stack, SURF's first octave (increasing, at least 3 so
// interior scales exist).
var filterSizes = [...]int{9, 15, 21, 27}

const (
	threshold    = 1e-4 // rejects weak extrema
	maxKeypoints = 200  // caps the output, strongest first
)

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

// DetectKeypoints runs the fast-Hessian detector over the image whose
// integral image is ii: the Suite FE kernel. Width 1 is its
// single-threaded baseline, one full-image tile on the caller. At any
// other width (<= 0 for the pool's) the image is cut into tiles of at
// least minTile pixels a side ("for each image tile", Table 4), whose
// scale stacks and non-max suppression run on the shared mat worker pool
// (paper §4.3.1). The keypoints do not depend on the width: suppression
// reads responses computed over a tile border margin, and the tiles'
// keypoints are merged in the full tile's strongest-first order.
func DetectKeypoints(ii *Integral, width int) []Keypoint {
	full := Tile{X1: ii.W, Y1: ii.H}
	tiles := []Tile{full}
	if width != 1 {
		tiles = Tiles(ii.W, ii.H)
	}
	found := make([][]Keypoint, len(tiles))
	mat.ParallelWidth(width, len(tiles), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			found[i] = detectInTile(ii, tiles[i], full)
		}
	})
	kps := slices.Concat(found...)
	sortKeypoints(kps)
	if len(kps) > maxKeypoints {
		kps = kps[:maxKeypoints]
	}
	return kps
}

// detectInTile detects maxima whose centers lie in `detect`, computing
// responses over detect expanded by one pixel (clamped to bounds) so
// suppression at tile edges is exact.
func detectInTile(ii *Integral, detect, bounds Tile) []Keypoint {
	margin := 1
	comp := Tile{
		X0: maxInt(bounds.X0, detect.X0-margin),
		Y0: maxInt(bounds.Y0, detect.Y0-margin),
		X1: minInt(bounds.X1, detect.X1+margin),
		Y1: minInt(bounds.Y1, detect.Y1+margin),
	}
	w := comp.X1 - comp.X0

	stack := make([][]float64, len(filterSizes))
	for si, size := range filterSizes {
		stack[si] = hessianResponse(ii, size, comp)
	}
	var kps []Keypoint
	at := func(s, x, y int) float64 { return stack[s][(y-comp.Y0)*w+(x-comp.X0)] }
	for s := 1; s < len(filterSizes)-1; s++ {
		for y := detect.Y0; y < detect.Y1; y++ {
			if y <= comp.Y0 || y >= comp.Y1-1 {
				continue
			}
			for x := detect.X0; x < detect.X1; x++ {
				if x <= comp.X0 || x >= comp.X1-1 {
					continue
				}
				v := at(s, x, y)
				if v < threshold {
					continue
				}
				if !isLocalMax(at, s, x, y, v) {
					continue
				}
				kps = append(kps, Keypoint{
					X:        float64(x),
					Y:        float64(y),
					Scale:    1.2 * float64(filterSizes[s]) / 9,
					Response: v,
				})
			}
		}
	}

	sortKeypoints(kps)
	if len(kps) > maxKeypoints {
		kps = kps[:maxKeypoints]
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
