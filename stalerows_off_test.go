//go:build !stalerows

package perm_test

const staleRows = false
