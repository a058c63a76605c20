//go:build stalerows

package executor

// How the suites of other packages run with stale-row poisoning on.
func init() { poisonStaleRows = true }
