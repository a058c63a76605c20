//go:build stalerows

package wire

// How the suites of other packages run with stale-row poisoning on.
func init() { poisonStaleRows = true }
