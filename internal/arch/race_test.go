//go:build race

package arch_test

// The race detector slows fmt's reflection tenfold and finds nothing in
// a single-goroutine check, so race builds draw fewer random configs.
func init() { randomConfigs = 10_000 }
