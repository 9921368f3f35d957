package main

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const budgetLines = `BenchmarkSweep 	      20	   2470543 ns/op	 1000000 B/op	    2500 allocs/op
BenchmarkPut/LeNet5         	      20	     25757 ns/op	    1000 B/op	       6 allocs/op
BenchmarkSpan 	      20	        55.95 ns/op	       0 B/op	       0 allocs/op
`

// line renders one go test result line with the given B/op and allocs/op.
func line(name, bytes, allocs string) string {
	return name + " \t      20\t   12345 ns/op\t" + bytes + " B/op\t" + allocs + " allocs/op\n"
}

func TestGate(t *testing.T) {
	within := line("BenchmarkSweep", "1049999", "2502") + line("BenchmarkPut/LeNet5", "950", "4") +
		line("BenchmarkSpan", "0", "0")
	for _, tc := range []struct {
		name, version, output string
		want                  int
	}{
		{"within margins", runtime.Version(), "goos: linux\n" + within + "PASS\n", 0},
		{"allocs over", runtime.Version(), strings.Replace(within, "2502 allocs", "2503 allocs", 1), 1},
		{"bytes over", runtime.Version(), strings.Replace(within, "1049999 B", "1050001 B", 1), 1},
		{"zero-byte probe allocates", runtime.Version(), strings.Replace(within, "\t0 B/op", "\t8 B/op", 1), 1},
		{"allocs stale", runtime.Version(), strings.Replace(within, "\t4 allocs", "\t3 allocs", 1), 1},
		{"bytes stale", runtime.Version(), strings.Replace(within, "950 B", "949 B", 1), 1},
		{"failed probe", runtime.Version(),
			strings.Replace(within, line("BenchmarkSpan", "0", "0"), "BenchmarkSpan \t--- FAIL: BenchmarkSpan\n", 1), 1},
		{"unbudgeted probe", runtime.Version(), within + line("BenchmarkNew", "1", "1"), 1},
		{"no output", runtime.Version(), "", 1},
		{"other go release", "go1.1.0", within, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "budget.txt")
			if err := os.WriteFile(path, []byte(tc.version+"\n"+budgetLines), 0o644); err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if got := run([]string{path}, strings.NewReader(tc.output), &out, io.Discard); got != tc.want {
				t.Fatalf("exit %d, want %d\n%s", got, tc.want, out.String())
			}
		})
	}
}

func TestMajorMinor(t *testing.T) {
	for in, want := range map[string]string{"go1.24.0": "go1.24", "go1.24\n": "go1.24", "go1.22.10": "go1.22"} {
		if got := majorMinor(in); got != want {
			t.Errorf("majorMinor(%q) = %q, want %q", in, got, want)
		}
	}
}
