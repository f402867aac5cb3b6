//go:build race

package gmm

const raceEnabled = true
