//go:build !race

package gmm

const raceEnabled = false
