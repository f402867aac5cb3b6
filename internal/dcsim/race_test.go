//go:build race

package dcsim

const raceEnabled = true
