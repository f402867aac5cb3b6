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
	detector  vision.DetectorConfig
	perImage  []int        // descriptor count per image
	positions [][2]float64 // keypoint position per indexed descriptor
}

// BuildDatabase extracts descriptors from each labeled image and indexes
// them. It corresponds to the offline pre-processing of the paper's image
// database (Stanford MVS in the original, procedural scenes here).
func BuildDatabase(labels []string, images []*vision.Image, det vision.DetectorConfig) (*Database, error) {
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
		descs := vision.ExtractDescriptors(im, det)
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
		detector:  det,
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
	// MaxChecks bounds ANN leaf visits per query descriptor (0 = exact).
	MaxChecks int
	// RatioTest rejects matches whose best/second distance ratio is above
	// this value (Lowe's test); <=0 disables.
	RatioTest float64
	// Workers parallelizes FE/FD/vote (the CMP port) on the shared mat
	// worker pool. <=0 uses the pool's configured width
	// (runtime.NumCPU() by default); 1 is the serial baseline.
	Workers int
	// GeometricVerify re-ranks the top candidates by RANSAC-verified
	// inlier count (votes must agree on one similarity transform).
	GeometricVerify bool
	// VerifyTopN candidates get verified (default 3).
	VerifyTopN int
	// RANSACIters and InlierTolPx tune verification (defaults 128, 6px).
	RANSACIters int
	InlierTolPx float64
}

// DefaultMatchConfig mirrors common SURF matching settings.
func DefaultMatchConfig() MatchConfig {
	return MatchConfig{MaxChecks: 200, RatioTest: 0.85, Workers: 1,
		VerifyTopN: 3, RANSACIters: 128, InlierTolPx: 6}
}

// voteGrain is the smallest descriptor range worth dispatching to a
// pool worker for ANN voting.
const voteGrain = 8

// Match runs the full query pipeline: detect, describe, ANN-vote.
func (db *Database) Match(query *vision.Image, cfg MatchConfig) MatchResult {
	return db.MatchContext(context.Background(), query, cfg)
}

// MatchContext is Match with cancellation checkpoints between the FE,
// FD, and voting phases and every voteGrain descriptors inside the vote
// loop (per chunk on the parallel path). An expired ctx stops the match
// where it stands: the result ranks the votes accumulated so far,
// skips geometric verification, and is marked Truncated.
func (db *Database) MatchContext(ctx context.Context, query *vision.Image, cfg MatchConfig) MatchResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = mat.Workers()
	}
	var res MatchResult
	start := time.Now()
	// Each phase runs under stage/kernel pprof labels and feeds the
	// measured breakdown (fe/fd are the paper's Fig 9 IMM kernels; ann
	// is the vote accumulation). CPU samples inside mat-pool goroutines
	// stay attributed to the pool, wall time is still correct.
	var ii *vision.Integral
	var kps []vision.Keypoint
	telemetry.WithKernel(ctx, "imm", "fe", func(context.Context) {
		ii = vision.NewIntegral(query)
		kps = vision.DetectKeypointsTiled(query, db.detector, workers, 50)
	})
	res.FeatureExtraction = time.Since(start)
	res.Keypoints = len(kps)
	if ctx.Err() != nil {
		res.Truncated = true
		return res
	}

	start = time.Now()
	var descs []vision.Descriptor
	telemetry.WithKernel(ctx, "imm", "fd", func(context.Context) {
		descs = vision.DescribeAllParallel(ii, kps, workers)
	})
	res.FeatureDescription = time.Since(start)
	if ctx.Err() != nil {
		res.Truncated = true
		return res
	}

	start = time.Now()
	var truncated atomic.Bool
	votes := make([]int, len(db.Labels))
	matches := make([][]correspondence, len(descs))
	voteOne := func(i int, local []int) {
		owner, idx, ok := db.vote(&descs[i].Vector, cfg, local)
		if ok && cfg.GeometricVerify {
			matches[i] = append(matches[i][:0], correspondence{
				qx: descs[i].Keypoint.X, qy: descs[i].Keypoint.Y,
				dx: db.positions[idx][0], dy: db.positions[idx][1],
				owner: owner,
			})
		}
	}
	telemetry.WithKernel(ctx, "imm", "ann", func(ctx context.Context) {
		if workers > 1 && len(descs) >= 2*voteGrain {
			// Each pool range accumulates into a local tally (tree search
			// touches disjoint matches[i] slots), merged under one lock. A
			// range observing an expired ctx returns without voting.
			var mu sync.Mutex
			mat.ParallelWidth(workers, len(descs), voteGrain, func(lo, hi int) {
				if ctx.Err() != nil {
					truncated.Store(true)
					return
				}
				local := make([]int, len(db.Labels))
				for i := lo; i < hi; i++ {
					voteOne(i, local)
				}
				mu.Lock()
				for i, v := range local {
					votes[i] += v
				}
				mu.Unlock()
			})
		} else {
			for i := range descs {
				if i%voteGrain == 0 && ctx.Err() != nil {
					truncated.Store(true)
					break
				}
				voteOne(i, votes)
			}
		}
	})
	res.Search = time.Since(start)
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
		topN := cfg.VerifyTopN
		if topN <= 0 {
			topN = 3
		}
		iters := cfg.RANSACIters
		if iters <= 0 {
			iters = 128
		}
		tol := cfg.InlierTolPx
		if tol <= 0 {
			tol = 6
		}
		res.Ranked = verifyCandidates(res.Ranked, all, db.Labels, topN, iters, tol)
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
func (db *Database) vote(vec *[vision.DescriptorSize]float64, cfg MatchConfig, votes []int) (owner int32, index int, ok bool) {
	best, second := db.tree.search2NN(vec, cfg.MaxChecks)
	if best.Owner < 0 {
		return 0, 0, false
	}
	if cfg.RatioTest > 0 && second.Index >= 0 && second.Owner != best.Owner {
		if best.Dist2 > cfg.RatioTest*cfg.RatioTest*second.Dist2 {
			return 0, 0, false
		}
	}
	votes[best.Owner]++
	return best.Owner, best.Index, true
}
