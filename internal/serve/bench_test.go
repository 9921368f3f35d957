package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/inca-arch/inca/internal/fault"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
)

// A/B timing probes of the service layer. Each operation boots a fresh
// in-process server and drives whole requests over loopback, so the
// probes read ns/op only and stay out of the allocation-budget gate:
//
//	go test ./internal/serve -run '^$' -bench 'CoalesceHerd|JobResume'

// sweepOK posts body to url and drains the reply. It reports failures
// with Error, so the herd's goroutines may call it.
func sweepOK(b *testing.B, url, body string) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Error(err)
		return
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Error(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Errorf("%s answered %d", url, resp.StatusCode)
	}
}

// BenchmarkCoalesceHerd times a thundering herd of 32 identical 8-cell
// sweeps with request coalescing off (every request runs the handler;
// the memo cache still dedups cells) and on (one leader executes and the
// herd replays its recorded response).
func BenchmarkCoalesceHerd(b *testing.B) {
	const herd = 32
	body := `{"archs":["inca","baseline"],"models":["LeNet5","VGG16-CIFAR"],"phases":["inference","training"]}`
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ts := httptest.NewServer(New(Options{
					Coalesce: CoalesceOptions{Enabled: mode.on, MaxWait: 5 * time.Second},
				}).Handler())
				b.StartTimer()
				var wg sync.WaitGroup
				for k := 0; k < herd; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						sweepOK(b, ts.URL+"/v1/sweep", body)
					}()
				}
				wg.Wait()
				b.StopTimer()
				ts.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkJobResume times the checkpoint dividend of durable jobs: a
// 64-cell job (2 archs × 2 models × 2 phases × 8 batch overrides)
// submitted through POST /v1/jobs and run to completion, against an
// empty store (cold) and against a store that an earlier server filled
// with 32 of its cells (resumed), as a crash-resumed job finds it. A
// fixed 2 ms latency fault at every simulated cell stands in for
// expensive cells; store hits bypass that site, so the gap between the
// two is the time recovered per checkpointed cell.
func BenchmarkJobResume(b *testing.B) {
	const (
		cells = `"archs":["inca","baseline"],"models":["LeNet5","VGG16-CIFAR"],"phases":["inference","training"],` +
			`"overrides":[{"batch":1},{"batch":2},{"batch":4},{"batch":8}`
		half = `{` + cells + `]}`
		full = `{` + cells + `,{"batch":16},{"batch":32},{"batch":64},{"batch":128}]}`
	)
	openStore := func(b *testing.B, dir string) *store.Store {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	for _, mode := range []struct {
		name    string
		prefill bool
	}{{"cold", false}, {"resumed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				if mode.prefill {
					st := openStore(b, dir)
					ts := httptest.NewServer(New(Options{Store: st}).Handler())
					sweepOK(b, ts.URL+"/v1/sweep", half)
					ts.Close()
					st.Close()
				}
				st := openStore(b, dir)
				jm, err := job.Open("", job.Options{Runners: 1})
				if err != nil {
					b.Fatal(err)
				}
				inj := fault.New(1)
				inj.Add(fault.Rule{Site: sweep.SpanCell + "/*", Kind: fault.KindLatency, Prob: 1, Delay: 2 * time.Millisecond})
				ts := httptest.NewServer(New(Options{Store: st, Jobs: jm, Inject: inj}).Handler())
				b.StartTimer()

				resp := post(b, ts.URL+"/v1/jobs", full, nil)
				var snap job.Snapshot
				if err := json.Unmarshal(readAll(b, resp), &snap); err != nil || resp.StatusCode != http.StatusAccepted {
					b.Fatalf("job submit answered %d: %v", resp.StatusCode, err)
				}
				// The job takes milliseconds, so poll well under that.
				for !snap.State.Terminal() {
					time.Sleep(500 * time.Microsecond)
					var ok bool
					if snap, ok = jm.Get(snap.ID); !ok {
						b.Fatal("submitted job is unknown")
					}
				}

				b.StopTimer()
				if snap.State != job.StateSucceeded {
					b.Fatalf("job finished %s: %s", snap.State, snap.Error)
				}
				ts.Close()
				jm.Close()
				st.Close()
				b.StartTimer()
			}
		})
	}
}
