//go:build race

package hmm

const raceEnabled = true
