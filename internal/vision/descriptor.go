package vision

import (
	"math"

	"sirius/internal/mat"
)

// DescriptorSize is the SURF-64 descriptor dimensionality: a 4x4 grid of
// subregions, each contributing (sum dx, sum dy, sum |dx|, sum |dy|).
const DescriptorSize = 64

// Descriptor is one 64-d unit-normalized SURF descriptor.
type Descriptor struct {
	Keypoint Keypoint
	Vector   [DescriptorSize]float64
}

// assignOrientation estimates the dominant gradient orientation around a
// keypoint using Haar responses in a radius-6s disc and a sliding pi/3
// window, exactly the scheme in Bay et al.
func assignOrientation(ii *Integral, kp *Keypoint) {
	s := kp.Scale
	type resp struct{ angle, dx, dy float64 }
	var rs []resp
	step := int(math.Max(1, math.Round(s)))
	size := int(math.Max(2, math.Round(4*s)))
	for dy := -6; dy <= 6; dy++ {
		for dx := -6; dx <= 6; dx++ {
			if dx*dx+dy*dy > 36 {
				continue
			}
			x := int(kp.X) + dx*step
			y := int(kp.Y) + dy*step
			gw := gauss(float64(dx), float64(dy), 2.5)
			rx := ii.haarX(x, y, size) * gw
			ry := ii.haarY(x, y, size) * gw
			if rx == 0 && ry == 0 {
				continue
			}
			rs = append(rs, resp{angle: math.Atan2(ry, rx), dx: rx, dy: ry})
		}
	}
	if len(rs) == 0 {
		kp.Orientation = 0
		return
	}
	best := 0.0
	bestAngle := 0.0
	const window = math.Pi / 3
	for probe := 0.0; probe < 2*math.Pi; probe += math.Pi / 18 {
		var sx, sy float64
		for _, r := range rs {
			d := angleDiff(r.angle, probe)
			if d < window/2 {
				sx += r.dx
				sy += r.dy
			}
		}
		if m := sx*sx + sy*sy; m > best {
			best = m
			bestAngle = math.Atan2(sy, sx)
		}
	}
	kp.Orientation = bestAngle
}

func angleDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

func gauss(x, y, sigma float64) float64 {
	return math.Exp(-(x*x + y*y) / (2 * sigma * sigma))
}

// describe computes the oriented SURF-64 descriptor for one keypoint.
// This is the per-keypoint unit of work of the Suite FD kernel (Table 4).
func describe(ii *Integral, kp Keypoint) Descriptor {
	assignOrientation(ii, &kp)
	d := Descriptor{Keypoint: kp}
	s := kp.Scale
	cos, sin := math.Cos(kp.Orientation), math.Sin(kp.Orientation)
	size := int(math.Max(2, math.Round(2*s)))
	idx := 0
	// 4x4 subregions, each 5x5 samples spaced s apart, covering a 20s
	// square around the keypoint, rotated to the dominant orientation.
	for ry := -2; ry < 2; ry++ {
		for rx := -2; rx < 2; rx++ {
			var sdx, sdy, adx, ady float64
			for sy := 0; sy < 5; sy++ {
				for sx := 0; sx < 5; sx++ {
					// Sample offset in keypoint frame, in units of s.
					ox := (float64(rx*5+sx) + 0.5 - 10) * s
					oy := (float64(ry*5+sy) + 0.5 - 10) * s
					// Rotate into image frame.
					px := kp.X + cos*ox - sin*oy
					py := kp.Y + sin*ox + cos*oy
					gw := gauss(ox/s, oy/s, 3.3)
					hx := ii.haarX(int(px), int(py), size) * gw
					hy := ii.haarY(int(px), int(py), size) * gw
					// Rotate responses back into keypoint frame.
					tdx := cos*hx + sin*hy
					tdy := -sin*hx + cos*hy
					sdx += tdx
					sdy += tdy
					adx += math.Abs(tdx)
					ady += math.Abs(tdy)
				}
			}
			d.Vector[idx] = sdx
			d.Vector[idx+1] = sdy
			d.Vector[idx+2] = adx
			d.Vector[idx+3] = ady
			idx += 4
		}
	}
	// Unit-normalize for photometric invariance.
	var norm float64
	for _, v := range d.Vector {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		for i := range d.Vector {
			d.Vector[i] /= norm
		}
	}
	return d
}

// DescribeAll computes descriptors for every keypoint (serial FD baseline).
func DescribeAll(ii *Integral, kps []Keypoint) []Descriptor {
	out := make([]Descriptor, len(kps))
	for i, kp := range kps {
		out[i] = describe(ii, kp)
	}
	return out
}

// DescribeAllParallel is the multicore FD port: contiguous keypoint
// ranges run on the shared mat worker pool ("for each keypoint",
// Table 4). workers <= 0 uses the pool's configured width; workers == 1
// is the serial baseline.
func DescribeAllParallel(ii *Integral, kps []Keypoint, workers int) []Descriptor {
	if workers <= 0 {
		workers = mat.Workers()
	}
	if workers <= 1 || len(kps) < 2*workers {
		return DescribeAll(ii, kps)
	}
	out := make([]Descriptor, len(kps))
	mat.ParallelWidth(workers, len(kps), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = describe(ii, kps[i])
		}
	})
	return out
}

// ExtractDescriptors is the full image pipeline: detect then describe.
func ExtractDescriptors(im *Image, cfg DetectorConfig) []Descriptor {
	ii := NewIntegral(im)
	kps := detectInTile(ii, cfg, Tile{X0: 0, Y0: 0, X1: im.W, Y1: im.H}, Tile{X0: 0, Y0: 0, X1: im.W, Y1: im.H})
	return DescribeAll(ii, kps)
}
