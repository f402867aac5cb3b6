//go:build race

package asr

const raceEnabled = true
