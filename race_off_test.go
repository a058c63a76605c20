//go:build !race

package perm_test

const raceEnabled = false
