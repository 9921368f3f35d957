package inca_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/inca-arch/inca"
)

// TestServiceHandlerMatchesDirectFacade drives the exported service
// handler with 32 concurrent clients and asserts every response body is
// byte-identical to encoding the report from a direct inca.Simulate
// call — the service must be a transparent transport over the facade.
func TestServiceHandlerMatchesDirectFacade(t *testing.T) {
	ts := httptest.NewServer(inca.NewServiceHandler(inca.ServiceOptions{}))
	defer ts.Close()

	sm, err := inca.NewMachine("is", inca.DefaultINCA())
	if err != nil {
		t.Fatal(err)
	}
	net, err := inca.Model("ResNet18")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sm.Simulate(context.Background(), net, inca.Inference)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := append(encoded, '\n')

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
				strings.NewReader(`{"arch":"inca","model":"ResNet18","phase":"inference"}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
				return
			}
			if !bytes.Equal(buf.Bytes(), want) {
				errs <- fmt.Errorf("served body differs from direct inca.Simulate encoding")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServiceSweepOverFacade runs a declarative sweep through the
// exported handler and sanity-checks the aggregate response shape.
func TestServiceSweepOverFacade(t *testing.T) {
	ts := httptest.NewServer(inca.NewServiceHandler(inca.ServiceOptions{}))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(
		`{"archs":["inca","baseline","gpu"],"models":["LeNet5"],"phases":["inference"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr inca.ServiceSweepResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(sr.Cells) != 3 || sr.Failed != 0 {
		t.Fatalf("status %d cells %d failed %d", resp.StatusCode, len(sr.Cells), sr.Failed)
	}
}
