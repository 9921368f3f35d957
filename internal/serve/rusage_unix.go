//go:build unix

package serve

import "syscall"

// cpuSeconds reads the process's cumulative CPU time (user + system)
// via getrusage — the runtime.cpu_seconds_total gauge on /metrics.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 {
		return float64(tv.Sec) + float64(tv.Usec)/1e6
	}
	return sec(ru.Utime) + sec(ru.Stime)
}
