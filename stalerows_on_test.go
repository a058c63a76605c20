//go:build stalerows

package perm_test

// staleRows: a poisoned build hands out a fresh row wherever a reusing operator
// refills one, so tests that count allocations skip under it.
const staleRows = true
