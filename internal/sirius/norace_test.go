//go:build !race

package sirius

const raceEnabled = false
