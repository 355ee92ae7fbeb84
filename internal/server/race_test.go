//go:build race

package server

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops a random share of what is put back, so
// allocation counts are not the program's.
const raceEnabled = true
