package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/obs"
	"github.com/inca-arch/inca/internal/train"
)

const (
	// writeInterval is the SGD steps between device reprogrammings; one
	// noise-train operation fine-tunes exactly one interval.
	writeInterval = 8
	// pretrainEpochs trains the clean starting point of Table VI.
	pretrainEpochs = 4
	trainLR        = 0.02
	// noiseSigma is the device noise strength, one of Table VI's levels.
	noiseSigma = 0.05
)

// setupNoiseTrain prepares the paper's Table VI experiment: fine-tuning
// a pretrained classifier while RRAM device noise corrupts either the
// weights (the weight-stationary exposure: persistent write error plus
// read error) or the activations (the input-stationary exposure:
// transient error only). One operation is one fine-tuning trial: both a
// weight-noise and an activation-noise copy of the pretrained network
// train over the same 8-step write interval of per-sample SGD, each followed by
// its device write. Every trial starts from the pretrained weights, so
// trials cost the same however long the run lasts (the kernels skip
// zeros, so a drifting network would drift the cost). Training is one
// sequential stream, as in cmd/inca-train; the time goes to the tensor
// kernels (convolution forward and backward passes), the noise models,
// and the garbage collector. Set-up generates the synthetic dataset and
// pretrains the clean network.
func setupNoiseTrain(e *env) (*instance, error) {
	cfg := data.DefaultConfig()
	cfg.Seed += e.seed
	trainSet, testSet := data.Generate(cfg).Split(0.25)
	base := train.SmallCNN(rand.New(rand.NewSource(e.seed)), 1, cfg.H, cfg.W, cfg.Classes)
	(&train.Trainer{Net: base, LR: trainLR}).Train(trainSet, pretrainEpochs)
	clean := train.Accuracy(base, testSet)
	if !(clean > 100/float64(cfg.Classes)) {
		return nil, fmt.Errorf("pretrained accuracy %.1f%% is no better than chance", clean)
	}
	targets := []train.NoiseTarget{train.NoiseWeights, train.NoiseActivations}

	// trial fine-tunes fresh copies of the pretrained network, one per
	// noise target, with the given trainer settings.
	trial := func(window *data.Dataset, trainers []train.Trainer) ([]*train.Network, error) {
		nets := make([]*train.Network, len(trainers))
		for i, tr := range trainers {
			nets[i] = base.Clone()
			tr.Net = nets[i]
			if loss := tr.Train(window, 1); math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
				return nil, fmt.Errorf("fine-tuning loss %v under %s noise", loss, tr.Target)
			}
		}
		return nets, nil
	}

	// The first trial is recorded and replayed in verify: the same inputs
	// and seeds must give bit-identical weights.
	var first struct {
		window   *data.Dataset
		trainers []train.Trainer
		nets     []*train.Network
	}

	return &instance{
		op: func(ctx context.Context, c *client) error {
			if c.id != 0 {
				return errors.New("noise-train is one training stream")
			}
			window := &data.Dataset{Classes: trainSet.Classes, H: trainSet.H, W: trainSet.W}
			for k := 0; k < writeInterval; k++ {
				window.Samples = append(window.Samples, trainSet.Samples[c.rng.Intn(len(trainSet.Samples))])
			}
			trainers := make([]train.Trainer, len(targets))
			for i, target := range targets {
				trainers[i] = train.Trainer{LR: trainLR, Target: target, Sigma: noiseSigma,
					Seed: c.rng.Int63(), WriteInterval: writeInterval}
			}
			_, span := obs.StartSpan(ctx, spanTrain)
			nets, err := trial(window, trainers)
			span.End()
			if err != nil {
				return err
			}
			if first.nets == nil {
				first.window, first.trainers, first.nets = window, trainers, nets
			}
			return nil
		},
		verify: func() error {
			if first.nets == nil {
				return errors.New("no trial completed")
			}
			nets, err := trial(first.window, first.trainers)
			if err != nil {
				return err
			}
			for i := range nets {
				if !sameWeights(nets[i], first.nets[i]) {
					return fmt.Errorf("replaying the %s-noise trial gave different weights", targets[i])
				}
				acc := train.Accuracy(nets[i], testSet)
				if math.IsNaN(acc) || acc < 0 || acc > 100 {
					return fmt.Errorf("%s-noise model accuracy %v", targets[i], acc)
				}
			}
			return nil
		},
		counters: func() counters { return counters{} },
		close:    func() {},
	}, nil
}

// sameWeights reports whether two networks of one topology hold
// bit-identical parameters.
func sameWeights(a, b *train.Network) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		var x, y [][]float64
		switch la := a.Layers[i].(type) {
		case *train.Conv:
			lb, ok := b.Layers[i].(*train.Conv)
			if !ok {
				return false
			}
			x, y = [][]float64{la.W.Data()}, [][]float64{lb.W.Data()}
		case *train.FC:
			lb, ok := b.Layers[i].(*train.FC)
			if !ok {
				return false
			}
			x, y = [][]float64{la.W.Data(), la.B.Data()}, [][]float64{lb.W.Data(), lb.B.Data()}
		}
		for j := range x {
			if len(x[j]) != len(y[j]) {
				return false
			}
			for k := range x[j] {
				if math.Float64bits(x[j][k]) != math.Float64bits(y[j][k]) {
					return false
				}
			}
		}
	}
	return true
}
