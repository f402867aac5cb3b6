//go:build !race

package hmm

const raceEnabled = false
