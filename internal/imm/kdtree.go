// Package imm implements Sirius' image-matching service (paper §2.3.2):
// a descriptor database over the image collection and an approximate
// nearest-neighbor (ANN) search — a k-d tree with best-bin-first
// traversal — that votes query descriptors onto database images. The
// database image with the most matches wins, exactly the pipeline in
// Figure 5.
package imm

import (
	"math"
	"sync"

	"sirius/internal/vision"
)

// point is one indexed descriptor and the database image that owns it.
type point struct {
	vec   [vision.DescriptorSize]float64
	owner int32
	orig  int32 // caller's index; build() reorders points in place
}

// kdNode is a node of the k-d tree. Leaves hold point index ranges.
type kdNode struct {
	splitDim    int
	splitVal    float64
	left, right *kdNode
	lo, hi      int // leaf: points[lo:hi]
}

// kdTree is a k-d tree over SURF descriptors supporting exact and
// best-bin-first approximate 2-nearest-neighbor queries.
type kdTree struct {
	points   []point
	root     *kdNode
	leafSize int
}

// buildKDTree indexes the points (vec, owner) pairs.
func buildKDTree(vecs [][vision.DescriptorSize]float64, owners []int32) *kdTree {
	pts := make([]point, len(vecs))
	for i := range vecs {
		pts[i] = point{vec: vecs[i], owner: owners[i], orig: int32(i)}
	}
	t := &kdTree{points: pts, leafSize: 16}
	t.root = t.build(0, len(pts))
	return t
}

func (t *kdTree) build(lo, hi int) *kdNode {
	if hi-lo <= t.leafSize {
		return &kdNode{lo: lo, hi: hi, splitDim: -1}
	}
	// Split on the dimension with the largest spread in this range.
	bestDim, bestSpread := 0, -1.0
	for d := 0; d < vision.DescriptorSize; d++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			v := t.points[i].vec[d]
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		if s := mx - mn; s > bestSpread {
			bestSpread = s
			bestDim = d
		}
	}
	if bestSpread <= 0 {
		// Degenerate range (identical points): make it a leaf.
		return &kdNode{lo: lo, hi: hi, splitDim: -1}
	}
	mid := (lo + hi) / 2
	nthElement(t.points[lo:hi], mid-lo, bestDim)
	n := &kdNode{splitDim: bestDim, splitVal: t.points[mid].vec[bestDim]}
	n.left = t.build(lo, mid)
	n.right = t.build(mid, hi)
	return n
}

// nthElement partially sorts pts so pts[n] is the element that would be
// at index n in dimension-dim order (quickselect).
func nthElement(pts []point, n, dim int) {
	lo, hi := 0, len(pts)-1
	for lo < hi {
		pivot := pts[(lo+hi)/2].vec[dim]
		i, j := lo, hi
		for i <= j {
			for pts[i].vec[dim] < pivot {
				i++
			}
			for pts[j].vec[dim] > pivot {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		if n <= j {
			hi = j
		} else if n >= i {
			lo = i
		} else {
			return
		}
	}
}

// neighbor is a search result.
type neighbor struct {
	Dist2 float64 // squared Euclidean distance
	Owner int32
	Index int // index into the slice passed to buildKDTree
}

// branch is a deferred subtree in best-bin-first order.
type branch struct {
	node  *kdNode
	dist2 float64 // lower bound on distance to the region
}

// searchScratch is the reusable per-query state of search2NN: a manual
// binary min-heap over branches. container/heap would box every Push
// through interface{} — ~one allocation per deferred subtree, which a
// matching pass multiplies by thousands of query descriptors — so the
// heap is sifted by hand over a pooled slice and a whole search
// allocates nothing in steady state.
type searchScratch struct {
	heap []branch
}

var scratchPool = sync.Pool{New: func() any { return &searchScratch{heap: make([]branch, 0, 64)} }}

// push adds a branch, restoring the min-heap invariant on dist2.
func (s *searchScratch) push(b branch) {
	s.heap = append(s.heap, b)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].dist2 <= s.heap[i].dist2 {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// pop removes and returns the branch with the smallest bound.
func (s *searchScratch) pop() branch {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.heap[l].dist2 < s.heap[min].dist2 {
			min = l
		}
		if r < n && s.heap[r].dist2 < s.heap[min].dist2 {
			min = r
		}
		if min == i {
			break
		}
		s.heap[i], s.heap[min] = s.heap[min], s.heap[i]
		i = min
	}
	return top
}

// search2NN returns the two nearest neighbors of q. maxChecks bounds the
// number of leaf points examined (best-bin-first approximation); pass 0
// for an exact search.
func (t *kdTree) search2NN(q *[vision.DescriptorSize]float64, maxChecks int) (best, second neighbor) {
	best = neighbor{Dist2: math.Inf(1), Owner: -1, Index: -1}
	second = best
	if t.root == nil || len(t.points) == 0 {
		return best, second
	}
	checks := 0
	h := scratchPool.Get().(*searchScratch)
	h.heap = h.heap[:0]
	defer scratchPool.Put(h)
	h.push(branch{node: t.root, dist2: 0})
	for len(h.heap) > 0 {
		br := h.pop()
		if br.dist2 >= second.Dist2 {
			continue
		}
		node := br.node
		// Descend to the leaf along the near side, deferring far sides.
		for node.splitDim >= 0 {
			diff := q[node.splitDim] - node.splitVal
			near, far := node.left, node.right
			if diff > 0 {
				near, far = node.right, node.left
			}
			// diff^2 alone is a valid lower bound on the distance to any
			// point in the far subtree. (Accumulating margins across
			// splits would require per-dimension bookkeeping: two splits
			// on the same dimension must not both contribute.)
			farBound := diff * diff
			if farBound < second.Dist2 {
				h.push(branch{node: far, dist2: farBound})
			}
			node = near
		}
		for i := node.lo; i < node.hi; i++ {
			p := &t.points[i]
			var d2 float64
			for d := 0; d < vision.DescriptorSize; d++ {
				diff := q[d] - p.vec[d]
				d2 += diff * diff
				if d2 >= second.Dist2 {
					break
				}
			}
			if d2 < best.Dist2 {
				second = best
				best = neighbor{Dist2: d2, Owner: p.owner, Index: int(p.orig)}
			} else if d2 < second.Dist2 {
				second = neighbor{Dist2: d2, Owner: p.owner, Index: int(p.orig)}
			}
			checks++
		}
		if maxChecks > 0 && checks >= maxChecks {
			break
		}
	}
	return best, second
}

// len returns the number of indexed descriptors.
func (t *kdTree) len() int { return len(t.points) }
