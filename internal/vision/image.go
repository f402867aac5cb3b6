// Package vision is the image substrate for Sirius' image-matching
// service (paper §2.3.2, Figure 5): grayscale images, integral images,
// and a from-scratch SURF pipeline — fast-Hessian keypoint detection
// (Suite kernel FE, DetectKeypoints) and 64-dimensional oriented
// descriptors (Suite kernel FD, DescribeAll). Each kernel is one function
// of a width: 1 is its single-threaded baseline, any other its multicore
// port on the shared mat worker pool, and the output is the same at every
// width. A procedural scene generator stands in for the Stanford Mobile
// Visual Search photographs the paper used.
package vision

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// Image is a grayscale image with float64 pixels in [0, 1].
type Image struct {
	W, H int
	Pix  []float64 // row-major, len W*H
}

// NewImage allocates a black W x H image.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// at returns the pixel at (x, y), clamping coordinates to the border
// (SURF box filters read past edges).
func (im *Image) at(x, y int) float64 {
	if x < 0 {
		x = 0
	} else if x >= im.W {
		x = im.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= im.H {
		y = im.H - 1
	}
	return im.Pix[y*im.W+x]
}

// Integral is a summed-area table: Sum answers any axis-aligned
// rectangle sum in O(1), the trick that makes SURF's box filters cheap.
type Integral struct {
	W, H int
	data []float64 // (W+1) x (H+1)
}

// NewIntegral builds the summed-area table of im.
func NewIntegral(im *Image) *Integral {
	w, h := im.W, im.H
	ii := &Integral{W: w, H: h, data: make([]float64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		var rowSum float64
		for x := 0; x < w; x++ {
			rowSum += im.Pix[y*w+x]
			ii.data[(y+1)*stride+x+1] = ii.data[y*stride+x+1] + rowSum
		}
	}
	return ii
}

// sum returns the sum of pixels in the rectangle [x0, x1) x [y0, y1),
// clipped to the image bounds.
func (ii *Integral) sum(x0, y0, x1, y1 int) float64 {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > ii.W {
		x1 = ii.W
	}
	if y1 > ii.H {
		y1 = ii.H
	}
	if x0 >= x1 || y0 >= y1 {
		return 0
	}
	stride := ii.W + 1
	return ii.data[y1*stride+x1] - ii.data[y0*stride+x1] - ii.data[y1*stride+x0] + ii.data[y0*stride+x0]
}

// haarX returns the Haar wavelet response in x at center (x, y) with the
// given size (total width = size, left half negative).
func (ii *Integral) haarX(x, y, size int) float64 {
	half := size / 2
	return ii.sum(x, y-half, x+half, y+half) - ii.sum(x-half, y-half, x, y+half)
}

// haarY returns the Haar wavelet response in y at center (x, y).
func (ii *Integral) haarY(x, y, size int) float64 {
	half := size / 2
	return ii.sum(x-half, y, x+half, y+half) - ii.sum(x-half, y-half, x+half, y)
}

// --- procedural scene generation ----------------------------------------

// SceneConfig sizes the procedural image generator's scenes.
type SceneConfig struct {
	W, H int
}

// Every scene has sceneBlobs Gaussian blobs, sceneRects rectangles and
// sensor noise of standard deviation sceneNoiseStd.
const (
	sceneBlobs    = 22
	sceneRects    = 9
	sceneNoiseStd = 0.01
)

// DefaultSceneConfig returns the generator settings used by the image
// database (160x160 textured scenes — enough structure that correct
// matches carry clearly more geometrically consistent correspondences
// than coincidental ones).
func DefaultSceneConfig() SceneConfig {
	return SceneConfig{W: 160, H: 160}
}

// GenerateScene renders a deterministic textured scene for a label. The
// same label always produces the same image, so the database and the
// tests agree about ground truth.
func GenerateScene(label string, cfg SceneConfig) *Image {
	h := fnv.New64a()
	h.Write([]byte(label))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	im := NewImage(cfg.W, cfg.H)
	// Background gradient.
	gx := rng.Float64() * 0.3
	gy := rng.Float64() * 0.3
	base := 0.2 + rng.Float64()*0.3
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			im.Pix[y*cfg.W+x] = base + gx*float64(x)/float64(cfg.W) + gy*float64(y)/float64(cfg.H)
		}
	}
	// Gaussian blobs (smooth features).
	for b := 0; b < sceneBlobs; b++ {
		cx := rng.Float64() * float64(cfg.W)
		cy := rng.Float64() * float64(cfg.H)
		sigma := 3 + rng.Float64()*8
		amp := (rng.Float64() - 0.5) * 0.9
		r := int(3 * sigma)
		for y := int(cy) - r; y <= int(cy)+r; y++ {
			for x := int(cx) - r; x <= int(cx)+r; x++ {
				if x < 0 || x >= cfg.W || y < 0 || y >= cfg.H {
					continue
				}
				d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
				im.Pix[y*cfg.W+x] += amp * math.Exp(-d2/(2*sigma*sigma))
			}
		}
	}
	// Rectangles (corner features).
	for r := 0; r < sceneRects; r++ {
		x0 := rng.Intn(cfg.W - 10)
		y0 := rng.Intn(cfg.H - 10)
		w := 6 + rng.Intn(24)
		hh := 6 + rng.Intn(24)
		amp := (rng.Float64() - 0.5) * 0.8
		for y := y0; y < y0+hh && y < cfg.H; y++ {
			for x := x0; x < x0+w && x < cfg.W; x++ {
				im.Pix[y*cfg.W+x] += amp
			}
		}
	}
	// Sensor-like noise.
	for i := range im.Pix {
		im.Pix[i] += rng.NormFloat64() * sceneNoiseStd
		im.Pix[i] = math.Max(0, math.Min(1, im.Pix[i]))
	}
	return im
}

// WarpParams describe the camera-pose perturbation applied to a database
// scene to produce a query photo of the same entity.
type WarpParams struct {
	Angle      float64 // radians
	Scale      float64
	Dx, Dy     float64 // translation in pixels
	Brightness float64 // additive
	NoiseStd   float64
	Seed       int64
}

// DefaultWarp returns a modest perturbation for the given seed.
func DefaultWarp(seed int64) WarpParams {
	rng := rand.New(rand.NewSource(seed))
	return WarpParams{
		Angle:      (rng.Float64() - 0.5) * 0.15,
		Scale:      1 + (rng.Float64()-0.5)*0.1,
		Dx:         (rng.Float64() - 0.5) * 8,
		Dy:         (rng.Float64() - 0.5) * 8,
		Brightness: (rng.Float64() - 0.5) * 0.08,
		NoiseStd:   0.015,
		Seed:       seed,
	}
}

// Warp applies an affine transform plus photometric jitter, simulating a
// phone photo of the database entity (bilinear sampling).
func Warp(im *Image, p WarpParams) *Image {
	out := NewImage(im.W, im.H)
	rng := rand.New(rand.NewSource(p.Seed))
	cx, cy := float64(im.W)/2, float64(im.H)/2
	cos, sin := math.Cos(-p.Angle), math.Sin(-p.Angle)
	inv := 1 / p.Scale
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			// Inverse-map destination pixel to source coordinates.
			dx := (float64(x) - cx - p.Dx) * inv
			dy := (float64(y) - cy - p.Dy) * inv
			sx := cos*dx - sin*dy + cx
			sy := sin*dx + cos*dy + cy
			v := bilinear(im, sx, sy) + p.Brightness + rng.NormFloat64()*p.NoiseStd
			out.Pix[y*im.W+x] = math.Max(0, math.Min(1, v))
		}
	}
	return out
}

func bilinear(im *Image, x, y float64) float64 {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	v00 := im.at(x0, y0)
	v10 := im.at(x0+1, y0)
	v01 := im.at(x0, y0+1)
	v11 := im.at(x0+1, y0+1)
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Tile describes a sub-rectangle of an image; the multicore FE port
// processes tiles in parallel.
type Tile struct {
	X0, Y0, X1, Y1 int
}

// minTile is the smallest tile side of the multicore FE port: paper
// §4.3.1 fixes tiles at >= 50x50 pixels.
const minTile = 50

// Tiles splits a w x h image into a grid of tiles of at least minTile
// pixels on each side.
func Tiles(w, h int) []Tile {
	nx := w / minTile
	if nx < 1 {
		nx = 1
	}
	ny := h / minTile
	if ny < 1 {
		ny = 1
	}
	var out []Tile
	for ty := 0; ty < ny; ty++ {
		for tx := 0; tx < nx; tx++ {
			t := Tile{
				X0: tx * w / nx,
				Y0: ty * h / ny,
				X1: (tx + 1) * w / nx,
				Y1: (ty + 1) * h / ny,
			}
			out = append(out, t)
		}
	}
	return out
}

func (t Tile) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", t.X0, t.X1, t.Y0, t.Y1)
}
