// Command inca-sim runs accelerator simulations on the parallel sweep
// engine. A single (model, arch, phase) cell prints the detailed
// energy/latency report with its component breakdown and (optionally)
// the per-layer detail, schedule, placement, and a CSV trace; comma
// lists on -model / -arch / -phase expand into a cross-product sweep
// rendered as one summary table.
//
// Usage:
//
//	inca-sim -model VGG16 -arch inca -phase training -batch 64 -layers
//	inca-sim -model MobileNetV2 -arch baseline -timeline
//	inca-sim -model ResNet18 -arch gpu
//	inca-sim -model LeNet5 -arch os
//	inca-sim -model LeNet5 -placement -csv trace.csv
//	inca-sim -model VGG16 -config my-accelerator.json
//	inca-sim -model VGG16,ResNet18 -arch inca,baseline,gpu,os -phase inference,training -jobs 8
//	inca-sim -model VGG16 -arch inca -timeout 30s
//	inca-sim -model LeNet5 -tune
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/inca-arch/inca"
	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/cli"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/report"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/sweep"
)

func main() {
	// Ctrl-C / SIGTERM cancels the sweep engine cleanly: in-flight cells
	// finish, unexecuted ones carry the context error, and the command
	// exits through its normal error path instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("inca-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "ResNet18", "network (comma list sweeps): VGG16, VGG19, ResNet18, ResNet50, MobileNetV2, MNasNet, AlexNet, VGG16-CIFAR, ResNet18-CIFAR, LeNet5")
	archNames := fs.String("arch", "inca", "architecture (comma list sweeps): any registered dataflow ID or alias (is/inca, ws/baseline, os, gpu, ...)")
	tuneFlag := fs.Bool("tune", false, "run the mapping auto-tuner over -arch dataflows and print the Pareto frontier")
	phaseNames := fs.String("phase", "inference", "phase (comma list sweeps): inference, training")
	batch := fs.Int("batch", 64, "batch size")
	jobs := fs.Int("jobs", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	layers := fs.Bool("layers", false, "print per-layer results (single cell only)")
	timeline := fs.Bool("timeline", false, "print an ASCII Gantt of the layer schedule (single cell only)")
	placement := fs.Bool("placement", false, "print the layer-to-macro placement (single cell, inca arch only)")
	csvPath := fs.String("csv", "", "write the per-layer trace to this CSV file (single cell only)")
	configPath := fs.String("config", "", "load a custom accelerator configuration (JSON) instead of -arch defaults; its own dataflow field picks the backend")
	summary := fs.Bool("summary", false, "print the network's layer table and exit")
	logLevel := cli.LogLevelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *batch < 1 {
		// sweep.Resolve applies only positive batch sizes; reject the rest
		// rather than silently running the default.
		fmt.Fprintf(stderr, "inca-sim: invalid -batch %d (want >= 1)\n", *batch)
		return 2
	}
	logger, err := cli.NewLogger(stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "inca-sim:", err)
		return 2
	}
	logger.Debug("parsed flags", "model", *model, "arch", *archNames, "phase", *phaseNames, "batch", *batch)

	var nets []*inca.Network
	for _, name := range splitList(*model) {
		net, err := inca.Model(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		nets = append(nets, net)
	}

	if *summary {
		for _, net := range nets {
			fmt.Fprint(stdout, net.Summary())
		}
		return 0
	}

	var phases []inca.Phase
	for _, name := range splitList(*phaseNames) {
		ph, err := sim.ParsePhase(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		phases = append(phases, ph)
	}

	var custom *inca.Config
	if *configPath != "" {
		loaded, err := inca.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		custom = &loaded
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *tuneFlag {
		// -arch narrows the tuner's dataflow set only when set explicitly;
		// by default the search covers every registered backend.
		var dataflows []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "arch" {
				dataflows = splitList(*archNames)
			}
		})
		opt := inca.TuneOptions{Dataflows: dataflows, Phases: phases, Workers: *jobs}
		for _, net := range nets {
			fronts, err := inca.TuneSearch(ctx, net, opt)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			for _, f := range fronts {
				fmt.Fprintln(stdout, f)
			}
		}
		return 0
	}

	var archs []inca.SweepArch
	for _, name := range splitList(*archNames) {
		a, err := sweep.Resolve(name, nil, *batch)
		if err == nil && custom != nil && !a.Fixed {
			// As with the service's arch + config, the config's own
			// dataflow picks the backend; a fixed one ignores configs.
			a, err = sweep.Resolve("", custom, *batch)
		}
		if err != nil {
			fmt.Fprintf(stderr, "unknown arch %q\n", name)
			return 2
		}
		archs = append(archs, a)
	}

	plan := inca.SweepPlan{Archs: archs, Networks: nets, Phases: phases}
	results, err := inca.RunSweep(ctx, plan, inca.SweepOptions{Workers: *jobs})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(stderr, "%s %s %s: %v\n", r.Cell.Arch.Name, r.Cell.Network.Name, r.Cell.Phase, r.Err)
			return 1
		}
	}

	if len(results) == 1 {
		return printDetail(results[0], *layers, *timeline, *placement, *csvPath, stdout, stderr)
	}
	return printSweep(results, stdout)
}

// printDetail renders the classic single-simulation report.
func printDetail(res inca.SweepResult, layers, timeline, placement bool, csvPath string, stdout, stderr io.Writer) int {
	rep := res.Report
	fmt.Fprintln(stdout, rep)
	if perImage, err := rep.EnergyPerImage(); err == nil {
		fmt.Fprintf(stdout, "  energy/image: %s\n", metrics.FormatEnergy(perImage))
	}
	fmt.Fprintf(stdout, "  throughput:   %.1f images/s\n", rep.Throughput())
	fmt.Fprintf(stdout, "  breakdown:    %s\n", rep.Total.Energy)

	if layers {
		fmt.Fprintln(stdout, "  per-layer:")
		for _, lr := range rep.Layers {
			fmt.Fprintf(stdout, "    %-28s %-10s %-10s util %.2f\n",
				lr.Layer.String(),
				metrics.FormatEnergy(lr.Result.Energy.Total()),
				metrics.FormatTime(lr.Result.Latency),
				lr.Utilization)
		}
	}
	if timeline {
		gantt, err := inca.Timeline(rep, 6, 100)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, "  schedule:")
		fmt.Fprint(stdout, gantt)
	}
	if placement && !res.Cell.Arch.Fixed && res.Cell.Config.Dataflow == arch.InputStationary {
		fmt.Fprint(stdout, inca.PlaceNetwork(res.Cell.Config, res.Cell.Network))
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := rep.WriteCSV(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "  trace written to %s\n", csvPath)
	}
	return 0
}

// printSweep renders a cross-product run as one table, in plan order.
func printSweep(results []inca.SweepResult, stdout io.Writer) int {
	t := report.New("Sweep: "+fmt.Sprint(len(results))+" cells",
		"arch", "network", "phase", "energy (J)", "latency (s)", "J/image", "images/s")
	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
		perImage, _ := r.Report.EnergyPerImage()
		t.AddRow(r.Cell.Arch.Name, r.Cell.Network.Name, r.Cell.Phase.String(),
			r.Report.Total.Energy.Total(), r.Report.Total.Latency,
			perImage, r.Report.Throughput())
	}
	fmt.Fprint(stdout, t.String())
	fmt.Fprintf(stdout, "cells: %d (%d served from cache)\n", len(results), cached)
	return 0
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
