//go:build race

package mat

const raceEnabled = true
