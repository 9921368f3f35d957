//go:build !unix

package serve

// cpuSeconds is unavailable off unix; runtime.cpu_seconds_total reads 0
// there rather than gating the build on a platform API.
func cpuSeconds() float64 { return 0 }
