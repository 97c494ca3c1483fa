//go:build !race

package persist

const raceEnabled = false
