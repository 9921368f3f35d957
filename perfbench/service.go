package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

// node is one booted service instance listening on loopback, the way
// cmd/inca-serve runs it.
type node struct {
	srv  *serve.Server
	url  string
	stop context.CancelFunc
	done chan error
}

// boot starts a server with opt on an ephemeral loopback port and waits
// until its readiness probe answers 200. Request coalescing and Retry-After
// jitter are set as inca-serve sets them by default (-coalesce with a
// 250ms -coalesce-wait, -retry-jitter-seed 1).
func boot(opt serve.Options, hc *http.Client) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opt.Coalesce = serve.CoalesceOptions{Enabled: true, MaxWait: 250 * time.Millisecond}
	opt.RetryJitterSeed = 1
	opt.DrainTimeout = 5 * time.Second
	srv := serve.New(opt)
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: srv, url: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ctx, ln) }()
	resp, err := hc.Get(n.url + "/healthz/ready")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readiness answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close drains the server and waits for it to stop.
func (n *node) close() {
	n.stop()
	<-n.done
}

// newHTTPClient returns a keep-alive client sized for conns concurrent
// callers. hosts maps a "name:port" address to the loopback address it
// is dialed at; other addresses are dialed as they are.
func newHTTPClient(conns int, hosts map[string]string) *http.Client {
	var d net.Dialer
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if to, ok := hosts[addr]; ok {
					addr = to
				}
				return d.DialContext(ctx, network, addr)
			},
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: 4 * conns,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// post sends one JSON request, continuing the operation's trace when
// there is one, and reads the answer into buf. Anything but 200 fails.
func post(ctx context.Context, hc *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if span := obs.FromContext(ctx); span != nil {
		req.Header.Set("traceparent", span.Traceparent())
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		msg := buf.String()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("%s answered %d: %s", url, resp.StatusCode, strings.TrimSpace(msg))
	}
	if buf.Len() == 0 {
		return fmt.Errorf("%s answered an empty body", url)
	}
	return nil
}

// query is one request a workload sends: a /v1/simulate or /v1/sweep
// body, kept both encoded (what goes on the wire) and decoded (what the
// reference evaluation reads).
type query struct {
	path  string
	body  []byte
	sim   *serve.SimulateRequest
	sweep *serve.SweepRequest
}

func simulateQuery(req serve.SimulateRequest) query {
	body, _ := json.Marshal(req)
	return query{path: "/v1/simulate", body: body, sim: &req}
}

func sweepQuery(req serve.SweepRequest) query {
	body, _ := json.Marshal(req)
	return query{path: "/v1/sweep", body: body, sweep: &req}
}

// sampler keeps a bounded sample of answers for verification after the
// measured window, so checking them costs the run nothing.
type sampler struct {
	every, max int
	mu         sync.Mutex
	got        []sample
}

type sample struct {
	q    query
	body []byte
}

func (s *sampler) offer(c *client, q query, body []byte) {
	if c.ops%s.every != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.got) < s.max {
		s.got = append(s.got, sample{q: q, body: append([]byte(nil), body...)})
	}
}

// check verifies every sampled answer against the reference.
func (s *sampler) check(ref *reference) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.got) == 0 {
		return errors.New("no answers were sampled")
	}
	for _, smp := range s.got {
		if err := ref.check(smp.q, smp.body); err != nil {
			return fmt.Errorf("%s %s: %w", smp.q.path, smp.q.body, err)
		}
	}
	return nil
}

// reference evaluates queries directly on the sweep engine, with a
// private cache and none of the HTTP service in the way, so a served
// answer can be checked against an independent evaluation.
type reference struct {
	cache *sweep.Cache
}

func newReference() *reference { return &reference{cache: sweep.NewCache()} }

// check compares one served body with the reference evaluation of q:
// byte-identical for /v1/simulate, cell by cell (every figure exact) for
// /v1/sweep.
func (ref *reference) check(q query, body []byte) error {
	if q.sim != nil {
		want, err := ref.simulate(*q.sim)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			return errors.New("served report differs from the engine's")
		}
		return nil
	}
	var got serve.SweepResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	want, err := ref.sweep(*q.sweep)
	if err != nil {
		return err
	}
	if got.Failed != 0 || len(got.Cells) != len(want) {
		return fmt.Errorf("served %d cells (%d failed), want %d", len(got.Cells), got.Failed, len(want))
	}
	for i, w := range want {
		g := got.Cells[i]
		g.Cached = false
		if g != w {
			return fmt.Errorf("cell %d: served %+v, want %+v", i, g, w)
		}
		if !(w.EnergyJ > 0 && w.LatencyS > 0 && w.ThroughputIPS > 0) {
			return fmt.Errorf("cell %d: non-physical figures %+v", i, w)
		}
	}
	return nil
}

func (ref *reference) simulate(req serve.SimulateRequest) ([]byte, error) {
	ax, err := axis(req.Dataflow)
	if err != nil {
		return nil, err
	}
	results, err := ref.run(sweep.Plan{Archs: []sweep.Arch{ax}, Networks: networks([]string{req.Model}), Phases: phases([]string{req.Phase})})
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(results[0].Report)
	return append(enc, '\n'), err
}

// sweep evaluates a sweep request and summarizes it into the rows the
// service must answer.
func (ref *reference) sweep(req serve.SweepRequest) ([]serve.CellResult, error) {
	var archs []sweep.Arch
	for _, name := range append(append([]string(nil), req.Archs...), req.Dataflows...) {
		ax, err := axis(name)
		if err != nil {
			return nil, err
		}
		archs = append(archs, ax)
	}
	var overrides []sweep.Override
	for _, o := range req.Overrides {
		overrides = append(overrides, override(o))
	}
	results, err := ref.run(sweep.Plan{Archs: archs, Networks: networks(req.Models), Phases: phases(req.Phases), Overrides: overrides})
	if err != nil {
		return nil, err
	}
	rows := make([]serve.CellResult, len(results))
	for i, res := range results {
		rep := res.Report
		row := serve.CellResult{
			Arch:          res.Cell.Arch.Name,
			Override:      res.Cell.Override,
			Network:       res.Cell.Network.Name,
			Phase:         res.Cell.Phase.String(),
			EnergyJ:       rep.Total.Energy.Total(),
			LatencyS:      rep.Total.Latency,
			ThroughputIPS: rep.Throughput(),
			Utilization:   rep.Utilization(),
		}
		if len(req.Dataflows) > 0 {
			row.Dataflow = res.Cell.Dataflow()
		}
		if perImage, err := rep.EnergyPerImage(); err == nil {
			row.EnergyPerImageJ = perImage
		}
		rows[i] = row
	}
	return rows, nil
}

func (ref *reference) run(p sweep.Plan) ([]sweep.Result, error) {
	results, err := sweep.Run(context.Background(), p, sweep.Options{Workers: 1, Cache: ref.cache})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return results, nil
}

// axis resolves an architecture name the way the service's wire
// vocabulary defines it: the legacy names, else a dataflow ID.
func axis(name string) (sweep.Arch, error) {
	switch name {
	case "inca":
		return sweep.INCAArch(), nil
	case "baseline":
		return sweep.BaselineArch(), nil
	case "gpu":
		return sweep.GPUArch(), nil
	}
	return sweep.DataflowArch(name)
}

// mustNetwork looks up a zoo model; workloads only name models that
// exist, so a miss is a bug in the benchmark.
func mustNetwork(name string) *nn.Network {
	net, err := nn.ByName(name)
	if err != nil {
		panic(err)
	}
	return net
}

func networks(names []string) []*nn.Network {
	out := make([]*nn.Network, len(names))
	for i, name := range names {
		out[i] = mustNetwork(name)
	}
	return out
}

func phases(names []string) []sim.Phase {
	out := make([]sim.Phase, len(names))
	for i, name := range names {
		if name == "training" {
			out[i] = sim.Training
		}
	}
	return out
}

// override is the engine form of a wire override: the transform and
// label documented for OverrideSpec.
func override(o serve.OverrideSpec) sweep.Override {
	var parts []string
	if o.Batch > 0 {
		parts = append(parts, fmt.Sprintf("batch=%d", o.Batch))
	}
	if o.ADCBits > 0 {
		parts = append(parts, fmt.Sprintf("adc=%d", o.ADCBits))
	}
	if o.ArraySize > 0 {
		parts = append(parts, fmt.Sprintf("array=%d", o.ArraySize))
	}
	if o.StackedPlanes > 0 {
		parts = append(parts, fmt.Sprintf("planes=%d", o.StackedPlanes))
	}
	name := o.Name
	if name == "" {
		name = strings.Join(parts, ",")
	}
	if name == "" {
		name = "base"
	}
	return sweep.Override{Name: name, Apply: func(cfg arch.Config) arch.Config {
		if o.Batch > 0 {
			cfg.BatchSize = o.Batch
		}
		if o.ADCBits > 0 {
			cfg.ADCBits = o.ADCBits
		}
		if o.ArraySize > 0 {
			cfg.SubarrayRows, cfg.SubarrayCols = o.ArraySize, o.ArraySize
		}
		if o.StackedPlanes > 0 {
			cfg.StackedPlanes = o.StackedPlanes
		}
		return cfg
	}}
}
