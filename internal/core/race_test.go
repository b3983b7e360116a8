//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops entries at random,
// which adds allocations the code under test does not make.
const raceEnabled = true
