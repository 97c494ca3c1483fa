//go:build race

package persist

const raceEnabled = true
