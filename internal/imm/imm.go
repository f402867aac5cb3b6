package imm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/mat"
	"sirius/internal/telemetry"
	"sirius/internal/vision"
)

// Database is the pre-processed image collection: every database image's
// SURF descriptors, indexed in one k-d tree keyed by owning image.
type Database struct {
	Labels    []string
	tree      *kdTree
	perImage  []int        // descriptor count per image
	positions [][2]float64 // keypoint position per indexed descriptor
}

// BuildDatabase extracts descriptors from each labeled image and indexes
// them. It corresponds to the offline pre-processing of the paper's image
// database (Stanford MVS in the original, procedural scenes here).
func BuildDatabase(labels []string, images []*vision.Image) (*Database, error) {
	if len(labels) != len(images) {
		return nil, fmt.Errorf("imm: %d labels vs %d images", len(labels), len(images))
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("imm: empty database")
	}
	var vecs [][vision.DescriptorSize]float64
	var owners []int32
	var positions [][2]float64
	perImage := make([]int, len(images))
	for i, im := range images {
		ii := vision.NewIntegral(im)
		descs := vision.DescribeAll(ii, vision.DetectKeypoints(ii, 1), 1)
		perImage[i] = len(descs)
		for _, d := range descs {
			vecs = append(vecs, d.Vector)
			owners = append(owners, int32(i))
			positions = append(positions, [2]float64{d.Keypoint.X, d.Keypoint.Y})
		}
	}
	if len(vecs) == 0 {
		return nil, fmt.Errorf("imm: no descriptors extracted from database images")
	}
	return &Database{
		Labels:    labels,
		tree:      buildKDTree(vecs, owners),
		perImage:  perImage,
		positions: positions,
	}, nil
}

// DescriptorCount returns the total number of indexed descriptors.
func (db *Database) DescriptorCount() int { return db.tree.len() }

// MatchResult reports the outcome of matching one query image.
type MatchResult struct {
	Label string
	Votes int
	// Verified reports whether Votes are RANSAC inlier counts.
	Verified bool
	// Ranked is every image's vote count, best first.
	Ranked []ImageVotes
	// Timings decompose the IMM latency into the paper's two hot
	// components (Fig 9: FE and FD dominate IMM).
	FeatureExtraction  time.Duration // detection (FE kernel)
	FeatureDescription time.Duration // description (FD kernel)
	Search             time.Duration // ANN vote accumulation
	Keypoints          int
	// Truncated reports that the context was canceled or its deadline expired
	// mid-match: the ranking covers only the descriptors voted so far and
	// geometric verification is skipped (graceful degradation).
	Truncated bool
}

// ImageVotes is a (label, votes) pair.
type ImageVotes struct {
	Label string
	Votes int
}

// MatchConfig tunes query matching.
type MatchConfig struct {
	// Workers is the width the FE, FD and vote kernels run at on the
	// shared mat worker pool (the CMP port): 1 is the serial baseline,
	// <=0 the pool's configured width (runtime.NumCPU() by default). The
	// result does not depend on it.
	Workers int
	// GeometricVerify re-ranks the top candidates by RANSAC-verified
	// inlier count (votes must agree on one similarity transform).
	GeometricVerify bool
}

// DefaultMatchConfig matches on one worker without verification.
func DefaultMatchConfig() MatchConfig {
	return MatchConfig{Workers: 1}
}

// Matching follows common SURF settings: the ANN search visits at most
// maxChecks leaves per query descriptor, and geometric verification runs
// ransacIters RANSAC rounds over the top verifyTopN candidates with an
// inlier tolerance of inlierTolPx pixels.
const (
	maxChecks   = 200
	verifyTopN  = 3
	ransacIters = 128
	inlierTolPx = 6
)

// ratioTest rejects a match whose best/second distance ratio is above it
// (Lowe's test). It is a variable so that ratioTest*ratioTest rounds at
// run time, as the vote's threshold always has.
var ratioTest = 0.85

// voteGrain is the smallest descriptor range worth dispatching to a
// pool worker for ANN voting.
const voteGrain = 8

// Match runs the full query pipeline: detect, describe, ANN-vote.
func (db *Database) Match(query *vision.Image, cfg MatchConfig) MatchResult {
	return db.MatchContext(context.Background(), query, cfg)
}

// MatchContext is Match with cancellation checkpoints between the FE,
// FD, and voting phases and every voteGrain descriptors inside each of
// the vote loop's ranges. An expired ctx stops the match where it
// stands: the result ranks the votes accumulated so far, skips
// geometric verification, and is marked Truncated.
func (db *Database) MatchContext(ctx context.Context, query *vision.Image, cfg MatchConfig) MatchResult {
	var res MatchResult
	// Each phase runs under stage/kernel pprof labels and feeds the
	// measured breakdown (fe/fd are the paper's Fig 9 IMM kernels; ann
	// is the vote accumulation). CPU samples inside mat-pool goroutines
	// stay attributed to the pool, wall time is still correct.
	var ii *vision.Integral
	var kps []vision.Keypoint
	res.FeatureExtraction = telemetry.WithKernel(ctx, "imm", "fe", func(context.Context) {
		ii = vision.NewIntegral(query)
		kps = vision.DetectKeypoints(ii, cfg.Workers)
	})
	res.Keypoints = len(kps)
	if ctx.Err() != nil {
		res.Truncated = true
		return res
	}

	var descs []vision.Descriptor
	res.FeatureDescription = telemetry.WithKernel(ctx, "imm", "fd", func(context.Context) {
		descs = vision.DescribeAll(ii, kps, cfg.Workers)
	})
	if ctx.Err() != nil {
		res.Truncated = true
		return res
	}

	var truncated atomic.Bool
	votes := make([]int, len(db.Labels))
	matches := make([][]correspondence, len(descs))
	res.Search = telemetry.WithKernel(ctx, "imm", "ann", func(ctx context.Context) {
		// Each range tallies into its own votes (tree search touches
		// disjoint matches[i] slots), merged under one lock. A range that
		// observes an expired ctx stops voting and merges what it has.
		var mu sync.Mutex
		mat.ParallelWidth(cfg.Workers, len(descs), voteGrain, func(lo, hi int) {
			local := make([]int, len(db.Labels))
			for i := lo; i < hi; i++ {
				if (i-lo)%voteGrain == 0 && ctx.Err() != nil {
					truncated.Store(true)
					break
				}
				owner, idx, ok := db.vote(&descs[i].Vector, local)
				if ok && cfg.GeometricVerify {
					matches[i] = append(matches[i][:0], correspondence{
						qx: descs[i].Keypoint.X, qy: descs[i].Keypoint.Y,
						dx: db.positions[idx][0], dy: db.positions[idx][1],
						owner: owner,
					})
				}
			}
			mu.Lock()
			for i, v := range local {
				votes[i] += v
			}
			mu.Unlock()
		})
	})
	res.Truncated = truncated.Load()

	res.Ranked = make([]ImageVotes, len(db.Labels))
	for i, v := range votes {
		res.Ranked[i] = ImageVotes{Label: db.Labels[i], Votes: v}
	}
	sort.SliceStable(res.Ranked, func(i, j int) bool { return res.Ranked[i].Votes > res.Ranked[j].Votes })
	if cfg.GeometricVerify && !res.Truncated {
		var all []correspondence
		for _, m := range matches {
			all = append(all, m...)
		}
		res.Ranked = verifyCandidates(res.Ranked, all, db.Labels)
		res.Verified = true
	}
	if len(res.Ranked) > 0 {
		res.Label = res.Ranked[0].Label
		res.Votes = res.Ranked[0].Votes
	}
	return res
}

// vote accumulates one query descriptor's match into votes and reports
// the accepted neighbor (for geometric verification).
func (db *Database) vote(vec *[vision.DescriptorSize]float64, votes []int) (owner int32, index int, ok bool) {
	best, second := db.tree.search2NN(vec, maxChecks)
	if best.Owner < 0 {
		return 0, 0, false
	}
	if second.Index >= 0 && second.Owner != best.Owner {
		if best.Dist2 > ratioTest*ratioTest*second.Dist2 {
			return 0, 0, false
		}
	}
	votes[best.Owner]++
	return best.Owner, best.Index, true
}
