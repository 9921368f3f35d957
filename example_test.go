package inca_test

import (
	"context"
	"fmt"

	"github.com/inca-arch/inca"
)

// Simulate a network on INCA and compare against the WS baseline.
func ExampleCompare() {
	net, _ := inca.Model("VGG16")
	ctx := context.Background()
	is, _ := inca.NewMachine("is", inca.Config{})
	ws, _ := inca.NewMachine("ws", inca.Config{})
	incaRep, _ := is.Simulate(ctx, net, inca.Inference)
	baseRep, _ := ws.Simulate(ctx, net, inca.Inference)
	cmp := inca.Compare(incaRep, baseRep)
	fmt.Printf("INCA wins energy: %v, wins speed: %v\n",
		cmp.EnergyRatio > 1, cmp.Speedup > 1)
	// Output: INCA wins energy: true, wins speed: true
}

// Evaluate the Table IV memory-footprint formulas.
func ExampleMemoryFootprint() {
	net, _ := inca.Model("VGG16")
	f, err := inca.MemoryFootprint(net)
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline RRAM %.1f MB, INCA RRAM %.1f MB\n", f.BaselineRRAM, f.INCARRAM)
	// Output: baseline RRAM 272.6 MB, INCA RRAM 8.7 MB
}

// Simulate through the v2 context-aware API.
func ExampleSimulator() {
	sim, err := inca.NewMachine("is", inca.Config{})
	if err != nil {
		panic(err)
	}
	net, _ := inca.Model("ResNet18")
	rep, err := sim.Simulate(context.Background(), net, inca.Inference)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Arch, rep.Network, rep.Batch)
	// Output: INCA ResNet18 64
}

// Fan the paper's full evaluation out over the sweep engine.
func ExampleRunSweep() {
	results, err := inca.RunSweep(context.Background(), inca.PaperSweep(), inca.SweepOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), "cells")
	// Output: 36 cells
}

// Count the Table III buffer accesses analytically.
func ExampleCountAccesses() {
	net, _ := inca.Model("VGG16")
	ac := inca.CountAccesses(net, 8, 256)
	fmt.Printf("IS needs %d accesses, WS needs more: %v\n", ac.INCA, ac.Baseline > ac.INCA)
	// Output: IS needs 459712 accesses, WS needs more: true
}

// Quantify the Fig. 7b unrolling blow-up that motivates direct convolution.
func ExampleCountUnroll() {
	net, _ := inca.Model("ResNet50")
	u := inca.CountUnroll(net)
	fmt.Printf("unrolling needs %.1fx more RRAM\n", u.Ratio())
	// Output: unrolling needs 2.0x more RRAM
}

// Run a convolution functionally through the 2T1R array models.
func ExampleINCAFunctionalConv() {
	x := inca.RandnTensor(1, 1, 2, 6, 6)
	w := inca.RandnTensor(2, 0.5, 3, 2, 3, 3)
	outs := inca.INCAFunctionalConv([]*inca.Tensor{x}, w, inca.INCAArrayOptions{Stride: 1, Pad: 1})
	fmt.Println(len(outs), outs[0].Dims())
	// Output: 1 [3 6 6]
}

// Analyze device endurance under the IS write pressure (§VI).
func ExampleAnalyzeEndurance() {
	dev := inca.DeviceCandidates()[0] // RRAM
	p := inca.AnalyzeEndurance("INCA", inca.Training, dev, 0.1)
	fmt.Printf("%s: %.0f writes/cell/batch\n", p.Device, p.WritesPerCellPerBatch)
	// Output: RRAM (TaOx/HfOx): 2 writes/cell/batch
}
