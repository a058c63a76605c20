//go:build race

package perm_test

// raceEnabled: the race detector allocates on the program's behalf, so tests
// that count allocations skip under it.
const raceEnabled = true
