//go:build race

package nimbus

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
