package imm

import (
	"math/rand"
)

// Geometric verification: raw descriptor votes can agree by texture
// coincidence, but votes for the *right* image also agree on a single
// similarity transform (the query is a warped photo of the database
// scene). A RANSAC fit over the matched keypoint coordinates counts the
// geometrically consistent inliers, the standard re-ranking step in
// mobile visual search engines.

// correspondence pairs a query keypoint with its matched database
// keypoint.
type correspondence struct {
	qx, qy float64 // query keypoint
	dx, dy float64 // database keypoint
	owner  int32
}

// similarity is a 4-DoF transform q = s*R*d + t mapping database
// coordinates to query coordinates.
type similarity struct {
	a, b   float64 // s*cos, s*sin
	tx, ty float64
}

func (t similarity) apply(x, y float64) (float64, float64) {
	return t.a*x - t.b*y + t.tx, t.b*x + t.a*y + t.ty
}

// estimateSimilarity fits the transform from two correspondences.
func estimateSimilarity(c1, c2 correspondence) (similarity, bool) {
	dx := c2.dx - c1.dx
	dy := c2.dy - c1.dy
	den := dx*dx + dy*dy
	if den < 1e-9 {
		return similarity{}, false
	}
	qx := c2.qx - c1.qx
	qy := c2.qy - c1.qy
	// (a + ib) = (qx + iqy) / (dx + idy)
	a := (qx*dx + qy*dy) / den
	b := (qy*dx - qx*dy) / den
	t := similarity{a: a, b: b}
	t.tx = c1.qx - (a*c1.dx - b*c1.dy)
	t.ty = c1.qy - (b*c1.dx + a*c1.dy)
	return t, true
}

// ransacInliers estimates the best similarity over the correspondences
// and returns its inlier count. Deterministic for a given seed.
func ransacInliers(cs []correspondence, iters int, tolPx float64, seed int64) int {
	if len(cs) < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	best := 0
	tol2 := tolPx * tolPx
	for it := 0; it < iters; it++ {
		i := rng.Intn(len(cs))
		j := rng.Intn(len(cs))
		if i == j {
			continue
		}
		t, ok := estimateSimilarity(cs[i], cs[j])
		if !ok {
			continue
		}
		// Reject degenerate scales (a photo is not 10x zoomed).
		scale2 := t.a*t.a + t.b*t.b
		if scale2 < 0.25 || scale2 > 4 {
			continue
		}
		inliers := 0
		for _, c := range cs {
			px, py := t.apply(c.dx, c.dy)
			ddx := px - c.qx
			ddy := py - c.qy
			if ddx*ddx+ddy*ddy <= tol2 {
				inliers++
			}
		}
		if inliers > best {
			best = inliers
		}
	}
	return best
}

// verifyCandidates re-ranks the top vote-getters by RANSAC inlier count.
// It mutates ranked in place (updating Votes to the verified counts for
// the candidates it checked) and returns the new ordering.
func verifyCandidates(ranked []ImageVotes, matches []correspondence, labels []string) []ImageVotes {
	topN := min(verifyTopN, len(ranked))
	labelIdx := map[string]int32{}
	for i, l := range labels {
		labelIdx[l] = int32(i)
	}
	perImage := map[int32][]correspondence{}
	for _, c := range matches {
		perImage[c.owner] = append(perImage[c.owner], c)
	}
	for i := 0; i < topN; i++ {
		owner := labelIdx[ranked[i].Label]
		ranked[i].Votes = ransacInliers(perImage[owner], ransacIters, inlierTolPx, int64(owner)+1)
	}
	// Re-sort the verified prefix (stable for determinism).
	for i := 1; i < topN; i++ {
		for j := i; j > 0 && ranked[j].Votes > ranked[j-1].Votes; j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
		}
	}
	return ranked
}
