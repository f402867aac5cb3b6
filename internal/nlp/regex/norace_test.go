//go:build !race

package regex

const raceEnabled = false
