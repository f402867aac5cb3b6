// Visualsearch: exercises the image-matching service on its own, the
// paper's mobile-visual-search scenario — photograph a storefront, find
// out which entity it is. It builds the image database, then matches
// several warped "photos" of each entity and prints per-query vote
// tallies, accuracy, and the FE/FD latency split.
package main

import (
	"fmt"
	"log"
	"time"

	"sirius/internal/imm"
	"sirius/internal/kb"
	"sirius/internal/vision"
)

func main() {
	labels := kb.ImageEntities()
	fmt.Printf("building image database (%d entities)...\n", len(labels))
	images := make([]*vision.Image, len(labels))
	for i, l := range labels {
		images[i] = vision.GenerateScene(l, vision.DefaultSceneConfig())
	}
	db, err := imm.BuildDatabase(labels, images)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d SURF descriptors\n\n", db.DescriptorCount())

	cfg := imm.DefaultMatchConfig()
	cfg.GeometricVerify = true // votes below are RANSAC inlier counts
	correct, total := 0, 0
	var fe, fd, search time.Duration
	for i, label := range labels {
		for shot := 0; shot < 3; shot++ {
			photo := vision.Warp(images[i], vision.DefaultWarp(int64(i*100+shot)))
			res := db.Match(photo, cfg)
			total++
			mark := "MISS"
			if res.Label == label {
				correct++
				mark = "ok"
			}
			runnerUp := 0
			if len(res.Ranked) > 1 {
				runnerUp = res.Ranked[1].Votes
			}
			fmt.Printf("%-20s shot %d -> %-20s inliers %3d (runner-up %3d, %3d keypoints) [%s]\n",
				label, shot, res.Label, res.Votes, runnerUp, res.Keypoints, mark)
			fe += res.FeatureExtraction
			fd += res.FeatureDescription
			search += res.Search
		}
	}
	fmt.Printf("\naccuracy: %d/%d\n", correct, total)
	n := time.Duration(total)
	fmt.Printf("mean latency: FE %v, FD %v, ANN search %v\n", fe/n, fd/n, search/n)
	fmt.Println("(FE and FD are the two IMM kernels of Sirius Suite; Fig 9 shows they dominate IMM.)")
}
