package imm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sirius/internal/kb"
	"sirius/internal/mat"
	"sirius/internal/vision"
)

func randomVecs(rng *rand.Rand, n int) ([][vision.DescriptorSize]float64, []int32) {
	vecs := make([][vision.DescriptorSize]float64, n)
	owners := make([]int32, n)
	for i := range vecs {
		for d := range vecs[i] {
			vecs[i][d] = rng.NormFloat64()
		}
		owners[i] = int32(i % 5)
	}
	return vecs, owners
}

func bruteForce2NN(vecs [][vision.DescriptorSize]float64, q *[vision.DescriptorSize]float64) (int, int) {
	b, s := -1, -1
	bd, sd := math.Inf(1), math.Inf(1)
	for i := range vecs {
		var d2 float64
		for d := range q {
			diff := q[d] - vecs[i][d]
			d2 += diff * diff
		}
		if d2 < bd {
			sd, s = bd, b
			bd, b = d2, i
		} else if d2 < sd {
			sd, s = d2, i
		}
	}
	return b, s
}

func TestKDTreeExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vecs, owners := randomVecs(rng, 50+rng.Intn(100))
		tree := buildKDTree(vecs, owners)
		var q [vision.DescriptorSize]float64
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		best, second := tree.search2NN(&q, 0)
		wb, ws := bruteForce2NN(vecs, &q)
		if best.Index != wb {
			return false
		}
		// Second neighbor can tie; compare distances instead of indices.
		var wsd float64
		for d := range q {
			diff := q[d] - vecs[ws][d]
			wsd += diff * diff
		}
		return math.Abs(second.Dist2-wsd) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKDTreeApproximateIsCloseOnClusteredData(t *testing.T) {
	// Real SURF descriptors are clustered (low intrinsic dimension), which
	// is what best-bin-first exploits; uniform random 64-d data would be
	// the degenerate worst case. Build clustered data like a descriptor
	// set: a few hundred centers with small within-cluster noise.
	rng := rand.New(rand.NewSource(4))
	const clusters = 100
	centers := make([][vision.DescriptorSize]float64, clusters)
	for c := range centers {
		for d := range centers[c] {
			centers[c][d] = rng.NormFloat64()
		}
	}
	vecs := make([][vision.DescriptorSize]float64, 2000)
	owners := make([]int32, len(vecs))
	for i := range vecs {
		c := centers[rng.Intn(clusters)]
		for d := range c {
			vecs[i][d] = c[d] + rng.NormFloat64()*0.05
		}
		owners[i] = int32(i % 5)
	}
	tree := buildKDTree(vecs, owners)
	agree := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		q := centers[rng.Intn(clusters)]
		for d := range q {
			q[d] += rng.NormFloat64() * 0.05
		}
		exact, _ := tree.search2NN(&q, 0)
		approx, _ := tree.search2NN(&q, 200)
		if exact.Index == approx.Index {
			agree++
		}
	}
	if agree < trials*7/10 {
		t.Fatalf("approximate NN agreed only %d/%d times", agree, trials)
	}
}

func TestKDTreeQueryOnIndexedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vecs, owners := randomVecs(rng, 100)
	tree := buildKDTree(vecs, owners)
	for i := 0; i < 10; i++ {
		q := vecs[i*7]
		best, _ := tree.search2NN(&q, 0)
		if best.Dist2 > 1e-12 {
			t.Fatalf("indexed point not found exactly: %v", best)
		}
	}
}

func TestKDTreeDegenerateIdenticalPoints(t *testing.T) {
	vecs := make([][vision.DescriptorSize]float64, 40)
	owners := make([]int32, 40)
	tree := buildKDTree(vecs, owners) // all zero vectors
	var q [vision.DescriptorSize]float64
	best, second := tree.search2NN(&q, 0)
	if best.Dist2 != 0 || second.Dist2 != 0 {
		t.Fatalf("degenerate search: %v %v", best, second)
	}
	if tree.len() != 40 {
		t.Fatal("Len")
	}
}

func TestKDTreeEmpty(t *testing.T) {
	tree := buildKDTree(nil, nil)
	var q [vision.DescriptorSize]float64
	best, _ := tree.search2NN(&q, 0)
	if best.Index != -1 {
		t.Fatal("empty tree must return no neighbor")
	}
}

func buildTestDB(t testing.TB) *Database {
	labels := kb.ImageEntities()
	images := make([]*vision.Image, len(labels))
	for i, l := range labels {
		images[i] = vision.GenerateScene(l, vision.DefaultSceneConfig())
	}
	db, err := BuildDatabase(labels, images)
	if err != nil {
		panic(err)
	}
	return db
}

func TestBuildDatabaseValidation(t *testing.T) {
	if _, err := BuildDatabase([]string{"a"}, nil); err == nil {
		t.Fatal("mismatched lengths must error")
	}
	if _, err := BuildDatabase(nil, nil); err == nil {
		t.Fatal("empty database must error")
	}
	flat := vision.NewImage(64, 64)
	if _, err := BuildDatabase([]string{"flat"}, []*vision.Image{flat}); err == nil {
		t.Fatal("featureless database must error")
	}
}

func TestMatchIdentifiesWarpedQueries(t *testing.T) {
	db := buildTestDB(t)
	correct := 0
	total := 0
	for i, label := range db.Labels {
		scene := vision.GenerateScene(label, vision.DefaultSceneConfig())
		query := vision.Warp(scene, vision.DefaultWarp(int64(100+i)))
		res := db.Match(query, DefaultMatchConfig())
		total++
		if res.Label == label {
			correct++
		}
	}
	if correct < total*8/10 {
		t.Fatalf("matched %d/%d warped queries", correct, total)
	}
}

func TestMatchTimingsAndRanking(t *testing.T) {
	db := buildTestDB(t)
	query := vision.Warp(vision.GenerateScene(db.Labels[0], vision.DefaultSceneConfig()), vision.DefaultWarp(7))
	res := db.Match(query, DefaultMatchConfig())
	if res.Keypoints == 0 || res.FeatureExtraction <= 0 || res.FeatureDescription <= 0 {
		t.Fatalf("timings not populated: %+v", res)
	}
	if len(res.Ranked) != len(db.Labels) {
		t.Fatal("ranking must cover all images")
	}
	assertRanked(t, "unverified", res)

	// Verified, the ranking is the RANSAC-checked prefix in inliers. Under
	// this warp an unchecked image's raw votes exceed a checked one's
	// inliers, so a list holding both units would be out of order.
	cfg := DefaultMatchConfig()
	cfg.GeometricVerify = true
	query = vision.Warp(vision.GenerateScene("luigis restaurant", vision.DefaultSceneConfig()), vision.DefaultWarp(232))
	res = db.Match(query, cfg)
	if !res.Verified || len(res.Ranked) != min(verifyTopN, len(db.Labels)) {
		t.Fatalf("verified: %d ranked (verified %v), want the %d checked", len(res.Ranked), res.Verified, verifyTopN)
	}
	assertRanked(t, "verified", res)
}

// assertRanked fails t unless res.Ranked is best first and res.Votes is
// its head's.
func assertRanked(t *testing.T, what string, res MatchResult) {
	t.Helper()
	for i := 1; i < len(res.Ranked); i++ {
		if res.Ranked[i].Votes > res.Ranked[i-1].Votes {
			t.Fatalf("%s: ranking not sorted: %v", what, res.Ranked)
		}
	}
	if res.Votes != res.Ranked[0].Votes {
		t.Fatalf("%s: top votes mismatch", what)
	}
}

// sameMatch fails t unless got is want: label, votes and the full
// ranking.
func sameMatch(t *testing.T, what string, got, want MatchResult) {
	t.Helper()
	if got.Label != want.Label || got.Votes != want.Votes || got.Keypoints != want.Keypoints {
		t.Fatalf("%s: %v/%d votes/%d keypoints, width 1 %v/%d/%d", what, got.Label, got.Votes, got.Keypoints, want.Label, want.Votes, want.Keypoints)
	}
	if len(got.Ranked) != len(want.Ranked) {
		t.Fatalf("%s: ranks %d images, width 1 %d", what, len(got.Ranked), len(want.Ranked))
	}
	for i := range want.Ranked {
		if got.Ranked[i] != want.Ranked[i] {
			t.Fatalf("%s: ranking differs at %d: %+v vs %+v", what, i, got.Ranked[i], want.Ranked[i])
		}
	}
}

// TestMatchParallelAgreesWithSerial pins the match's width invariance:
// FE, FD and the vote at widths 2-4 give the width-1 label, votes and
// ranking, with and without geometric verification.
func TestMatchParallelAgreesWithSerial(t *testing.T) {
	db := buildTestDB(t)
	query := vision.Warp(vision.GenerateScene(db.Labels[1], vision.DefaultSceneConfig()), vision.DefaultWarp(11))
	for _, verify := range []bool{false, true} {
		serialCfg := DefaultMatchConfig()
		serialCfg.GeometricVerify = verify
		want := db.Match(query, serialCfg)
		for _, workers := range []int{2, 3, 4} {
			parCfg := serialCfg
			parCfg.Workers = workers
			sameMatch(t, fmt.Sprintf("verify=%v workers=%d", verify, workers), db.Match(query, parCfg), want)
		}
	}
}

// TestMatchPoolWorkersAgreesWithSerial: Workers <= 0 defers to the
// shared mat pool's width; pin the pool wide so the pool path runs even
// on a single-core box, and check the full ranking is unchanged.
func TestMatchPoolWorkersAgreesWithSerial(t *testing.T) {
	defer mat.SetWorkers(0)
	mat.SetWorkers(4)
	db := buildTestDB(t)
	query := vision.Warp(vision.GenerateScene(db.Labels[2], vision.DefaultSceneConfig()), vision.DefaultWarp(13))
	want := db.Match(query, DefaultMatchConfig())
	for _, workers := range []int{0, -1} {
		poolCfg := DefaultMatchConfig()
		poolCfg.Workers = workers
		sameMatch(t, fmt.Sprintf("workers=%d", workers), db.Match(query, poolCfg), want)
	}
}

func TestDescriptorCount(t *testing.T) {
	db := buildTestDB(t)
	if db.DescriptorCount() == 0 {
		t.Fatal("no descriptors indexed")
	}
	sum := 0
	for _, n := range db.perImage {
		sum += n
	}
	if sum != db.DescriptorCount() {
		t.Fatal("per-image counts inconsistent")
	}
}

func BenchmarkMatch(b *testing.B) {
	db := buildTestDB(b)
	query := vision.Warp(vision.GenerateScene(db.Labels[0], vision.DefaultSceneConfig()), vision.DefaultWarp(3))
	cfg := DefaultMatchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Match(query, cfg)
	}
}

func TestGeometricVerificationImprovesOrEqualsAccuracy(t *testing.T) {
	db := buildTestDB(t)
	plain := DefaultMatchConfig()
	verified := DefaultMatchConfig()
	verified.GeometricVerify = true
	plainOK, verOK := 0, 0
	for i, label := range db.Labels {
		scene := vision.GenerateScene(label, vision.DefaultSceneConfig())
		query := vision.Warp(scene, vision.DefaultWarp(int64(900+i)))
		if db.Match(query, plain).Label == label {
			plainOK++
		}
		res := db.Match(query, verified)
		if !res.Verified {
			t.Fatal("result must be marked verified")
		}
		if res.Label == label {
			verOK++
		}
	}
	t.Logf("accuracy: plain %d/%d, verified %d/%d", plainOK, len(db.Labels), verOK, len(db.Labels))
	if verOK < plainOK {
		t.Fatalf("verification regressed accuracy: %d < %d", verOK, plainOK)
	}
}

func TestRansacInliersOnKnownTransform(t *testing.T) {
	// Correspondences under one exact similarity: all inliers. Random
	// garbage: few inliers.
	tr := similarity{a: 0.9, b: 0.2, tx: 5, ty: -3}
	var cs []correspondence
	for i := 0; i < 30; i++ {
		dx, dy := float64(i*7%50), float64(i*13%50)
		qx, qy := tr.apply(dx, dy)
		cs = append(cs, correspondence{qx: qx, qy: qy, dx: dx, dy: dy})
	}
	if got := ransacInliers(cs, 64, 3, 1); got < 28 {
		t.Fatalf("consistent set: %d inliers of 30", got)
	}
	var garbage []correspondence
	for i := 0; i < 30; i++ {
		garbage = append(garbage, correspondence{
			qx: float64(i * 37 % 100), qy: float64(i * 53 % 100),
			dx: float64(i * 11 % 100), dy: float64(i * 29 % 100),
		})
	}
	if got := ransacInliers(garbage, 64, 3, 1); got > 15 {
		t.Fatalf("garbage set: %d inliers of 30", got)
	}
	if ransacInliers(nil, 64, 3, 1) != 0 {
		t.Fatal("empty set must have 0 inliers")
	}
}

func TestEstimateSimilarity(t *testing.T) {
	want := similarity{a: 1.2, b: -0.4, tx: 10, ty: 20}
	c1 := correspondence{dx: 0, dy: 0}
	c1.qx, c1.qy = want.apply(c1.dx, c1.dy)
	c2 := correspondence{dx: 10, dy: 5}
	c2.qx, c2.qy = want.apply(c2.dx, c2.dy)
	got, ok := estimateSimilarity(c1, c2)
	if !ok {
		t.Fatal("estimation failed")
	}
	for _, p := range [][2]float64{{3, 7}, {-2, 4}} {
		wx, wy := want.apply(p[0], p[1])
		gx, gy := got.apply(p[0], p[1])
		if math.Abs(wx-gx) > 1e-9 || math.Abs(wy-gy) > 1e-9 {
			t.Fatalf("transform mismatch at %v", p)
		}
	}
	// Degenerate pair rejected.
	if _, ok := estimateSimilarity(c1, c1); ok {
		t.Fatal("identical points must fail")
	}
}

// TestSearch2NNDoesNotAllocate pins the hot-path contract: the
// best-bin-first search reuses pooled heap scratch, so a steady-state
// query allocates nothing. The old container/heap traversal boxed every
// deferred branch (~50 allocs per query); a regression here multiplies
// across every descriptor of every matched image.
func TestSearch2NNDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vecs, owners := randomVecs(rng, 2000)
	tree := buildKDTree(vecs, owners)
	queries := make([][vision.DescriptorSize]float64, 16)
	for i := range queries {
		for d := range queries[i] {
			queries[i][d] = rng.NormFloat64()
		}
	}
	// Warm the scratch pool outside the measured runs.
	tree.search2NN(&queries[0], 0)
	qi := 0
	allocs := testing.AllocsPerRun(100, func() {
		q := &queries[qi%len(queries)]
		qi++
		best, second := tree.search2NN(q, 0)
		if best.Index < 0 || second.Index < 0 {
			t.Fatal("search failed")
		}
	})
	if allocs > 0 {
		t.Fatalf("Search2NN allocates %.1f objects per query, want 0", allocs)
	}
}
