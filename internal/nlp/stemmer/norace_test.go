//go:build !race

package stemmer

const raceEnabled = false
