package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
)

// cpuTicks are the machine-wide CPU time counters of /proc/stat, in clock
// ticks: the total over every state, and the part the hypervisor stole
// for other guests of the host.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the aggregate line of /proc/stat. Where it cannot be
// read (not Linux) it returns zeros, and every segment counts as quiet.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the machine's CPU time stolen between two
// readings.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
