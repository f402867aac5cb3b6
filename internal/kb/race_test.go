//go:build race

package kb

const raceEnabled = true
