// Command benchgate is the allocation-budget gate behind `make
// bench-gate` (DESIGN.md §13). It reads `go test -bench -benchmem`
// output on stdin and compares each probe's allocs/op and B/op with the
// budget file named by its one argument, whose first line is the Go
// release it was recorded with and whose other lines are go test's
// Benchmark lines. It fails when a probe is more than 2 allocs/op or 5%
// B/op over budget, or as far under it (a stale budget, to re-record so
// the gain stays held); when a probe has a budget but no measurement, or
// a measurement but no budget; and when the Go major.minor differs from
// the recorded one. `make bench-budget` re-records the file.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem | benchgate scripts/bench_budget.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

const (
	allocSlack = 2    // allocs/op either side of the budget
	byteSlack  = 0.05 // fraction of the budget's B/op either side
)

// probe is one benchmark's memory profile per operation.
type probe struct{ bytes, allocs float64 }

// parse collects the B/op and allocs/op ending every Benchmark result
// line in r, in order; a failed benchmark's line has neither. A read
// error ends the scan early, which leaves probes unmeasured or
// unbudgeted and so fails the gate.
func parse(r io.Reader) (names []string, probes map[string]probe) {
	probes = map[string]probe{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		n := len(f)
		if n < 5 || !strings.HasPrefix(f[0], "Benchmark") || f[n-3] != "B/op" || f[n-1] != "allocs/op" {
			continue
		}
		bytes, err1 := strconv.ParseFloat(f[n-4], 64)
		allocs, err2 := strconv.ParseFloat(f[n-2], 64)
		if err1 == nil && err2 == nil {
			names = append(names, f[0])
			probes[f[0]] = probe{bytes, allocs}
		}
	}
	return names, probes
}

// verdict says what is wrong with got against budget, or "" when it is
// within the margins.
func verdict(budget, got probe) string {
	switch {
	case got.allocs > budget.allocs+allocSlack || got.bytes > budget.bytes*(1+byteSlack):
		return "over budget"
	case got.allocs < budget.allocs-allocSlack || got.bytes < budget.bytes*(1-byteSlack):
		return "stale budget, re-record"
	}
	return ""
}

// majorMinor reduces a Go version such as go1.24.0 to go1.24.
func majorMinor(v string) string {
	parts := strings.SplitN(strings.TrimSpace(v), ".", 3)
	return strings.Join(parts[:min(len(parts), 2)], ".")
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: benchgate BUDGET_FILE < go-test-bench-output")
		return 2
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	recorded, rest, _ := strings.Cut(string(raw), "\n")
	if majorMinor(recorded) != majorMinor(runtime.Version()) {
		fmt.Fprintf(stderr, "benchgate: budget recorded with %s, running %s: re-record with make bench-budget\n",
			recorded, runtime.Version())
		return 1
	}
	order, budget := parse(strings.NewReader(rest))
	measured, got := parse(stdin)
	failed := 0
	fail := func(name, problem string) {
		failed++
		fmt.Fprintf(stdout, "FAIL %-40s %s\n", name, problem)
	}
	for _, name := range order {
		b := budget[name]
		if g, ok := got[name]; !ok {
			fail(name, "no measurement")
		} else if v := verdict(b, g); v != "" {
			fail(name, fmt.Sprintf("%s: %.0f allocs/op, %.0f B/op; budget %.0f allocs/op, %.0f B/op",
				v, g.allocs, g.bytes, b.allocs, b.bytes))
		}
	}
	for _, name := range measured {
		if _, ok := budget[name]; !ok {
			fail(name, "no budget")
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "benchgate: %d probe(s) off budget; re-record %s with make bench-budget only for an intended change\n",
			failed, args[0])
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: ok (%d probes within %d allocs/op and %.0f%% B/op of budget)\n",
		len(order), allocSlack, 100*byteSlack)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
