package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/inca-arch/inca"
)

func TestBasicRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-model", "LeNet5", "-arch", "inca", "-layers", "-timeline"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"INCA LeNet5", "energy/image", "per-layer", "makespan"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestPlacementAndCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "trace.csv")
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-model", "LeNet5", "-placement", "-csv", csvPath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "placement:") {
		t.Error("missing placement summary")
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "TOTAL") {
		t.Error("CSV missing TOTAL row")
	}
}

func TestGPUAndTraining(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-model", "ResNet18", "-arch", "gpu", "-phase", "training"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "TitanRTX") {
		t.Error("missing GPU report")
	}
}

func TestCustomConfig(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	cfg := inca.DefaultINCA()
	cfg.Name = "MyINCA"
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-model", "LeNet5", "-config", cfgPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "MyINCA") {
		t.Errorf("custom config name not used:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-model", "NoSuchNet"},
		{"-arch", "tpu"},
		{"-phase", "sideways"},
		{"-config", "/nonexistent/cfg.json"},
		{"-batch", "0"},
		{"-bogus"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestSweepMode(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-model", "LeNet5,VGG16-CIFAR", "-arch", "inca,baseline,gpu",
		"-phase", "inference,training", "-jobs", "4"}
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "Sweep: 12 cells") {
		t.Fatalf("missing sweep header:\n%s", s)
	}
	for _, want := range []string{"INCA", "WS-Baseline", "TitanRTX", "LeNet5", "VGG16-CIFAR", "cells: 12"} {
		if !strings.Contains(s, want) {
			t.Errorf("sweep table missing %q", want)
		}
	}
	// GPU ignores batch/config, so its two nets x two phases dedupe per
	// (net, phase); nothing repeats here, so no cache hits expected —
	// but the summary line must always be present and well-formed.
	if !strings.Contains(s, "served from cache)") {
		t.Fatalf("missing cache summary line:\n%s", s)
	}

	// Same sweep serially must print the identical table.
	var serial bytes.Buffer
	if code := run(context.Background(), append(args[:len(args)-2], "-jobs", "1"), &serial, &errOut); code != 0 {
		t.Fatalf("serial exit %d: %s", code, errOut.String())
	}
	if serial.String() != s {
		t.Fatalf("-jobs changed sweep output:\nserial:\n%s\nparallel:\n%s", serial.String(), s)
	}
}

func TestSweepTimeout(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-model", "LeNet5", "-arch", "inca,baseline",
		"-timeout", "1ns"}, &out, &errOut); code != 1 {
		t.Fatalf("expired deadline exited %d, want 1 (stderr %q)", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run(context.Background(), []string{"-model", "LeNet5", "-arch", "inca",
		"-timeout", "1m"}, &out, &errOut); code != 0 {
		t.Fatalf("generous timeout exited %d: %s", code, errOut.String())
	}
}

func TestSummaryFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-model", "AlexNet", "-summary"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "AlexNet") || !strings.Contains(out.String(), "total:") {
		t.Fatalf("summary output:\n%s", out.String())
	}
}

// TestArchAliasesMatchLegacyNames pins name → machine at the CLI: every
// spelling of a backend prints exactly what its legacy name prints,
// with the -batch override and with a -config file alike.
func TestArchAliasesMatchLegacyNames(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	cfg := inca.DefaultINCA()
	cfg.Name = "MyINCA"
	cfg.ADCBits = 6
	if err := cfg.Save(cfgPath); err != nil {
		t.Fatal(err)
	}
	runArch := func(name string, extra ...string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		args := append([]string{"-model", "LeNet5", "-arch", name, "-batch", "8"}, extra...)
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
		}
		return out.String()
	}
	for legacy, aliases := range map[string][]string{
		"inca":     {"is", "INCA", "input-stationary"},
		"baseline": {"ws", "WS-Baseline", "weight-stationary"},
	} {
		for _, extra := range [][]string{nil, {"-config", cfgPath}} {
			want := runArch(legacy, extra...)
			for _, alias := range aliases {
				if got := runArch(alias, extra...); got != want {
					t.Errorf("-arch %s %v printed\n%s\nwant (as -arch %s)\n%s", alias, extra, got, legacy, want)
				}
			}
		}
	}
}
