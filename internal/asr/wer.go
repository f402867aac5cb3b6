package asr

import (
	"strings"
)

// WER computes the word error rate of a hypothesis against a reference:
// (substitutions + deletions + insertions) / reference length, via
// word-level Levenshtein alignment. A perfect hypothesis scores 0; WER
// can exceed 1 when the hypothesis is longer than the reference.
func WER(reference, hypothesis string) float64 {
	ref := strings.Fields(strings.ToLower(reference))
	hyp := strings.Fields(strings.ToLower(hypothesis))
	if len(ref) == 0 {
		if len(hyp) == 0 {
			return 0
		}
		return float64(len(hyp))
	}
	return float64(editDistance(ref, hyp)) / float64(len(ref))
}

// editDistance is word-level Levenshtein with unit costs.
func editDistance(ref, hyp []string) int {
	prev := make([]int, len(hyp)+1)
	cur := make([]int, len(hyp)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ref); i++ {
		cur[0] = i
		for j := 1; j <= len(hyp); j++ {
			sub := prev[j-1]
			if ref[i-1] != hyp[j-1] {
				sub++
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			cur[j] = minOf(sub, del, ins)
		}
		prev, cur = cur, prev
	}
	return prev[len(hyp)]
}

func minOf(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
