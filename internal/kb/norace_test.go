//go:build !race

package kb

const raceEnabled = false
