package rram

import (
	"fmt"
	"math/rand"

	"github.com/inca-arch/inca/internal/tensor"
)

// NoiseModel is the zero-centered normal perturbation the paper uses to
// model RRAM nonidealities — variation, nonlinearity and asymmetry —
// following Yu [65] (§V.B.7): "The noise strength (σ) was adjusted from
// 0.5% to 5% ... The noise was directly added to activations or weights
// during the training process."
type NoiseModel struct {
	// Sigma is the noise strength relative to the data range, e.g. 0.02
	// for the practically adopted 2%.
	Sigma float64
	rng   *rand.Rand
}

// NewNoiseModel returns a model with the given relative strength, seeded
// deterministically.
func NewNoiseModel(sigma float64, seed int64) *NoiseModel {
	if sigma < 0 {
		panic(fmt.Sprintf("rram: negative noise strength %v", sigma))
	}
	return &NoiseModel{Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Perturb returns v plus zero-centered Gaussian noise whose standard
// deviation is Sigma × scale, where scale is the data range the relative
// strength refers to.
func (n *NoiseModel) Perturb(v, scale float64) float64 {
	if n.Sigma == 0 {
		return v
	}
	return v + n.rng.NormFloat64()*n.Sigma*scale
}

// PerturbTensor returns a noisy copy of t with additive zero-centered
// noise of standard deviation σ × RMS(t): the relative strength refers to
// the tensor's typical signal level, a robust proxy for the conductance
// range the data is mapped onto.
func (n *NoiseModel) PerturbTensor(t *tensor.Tensor) *tensor.Tensor {
	return n.PerturbTensorInto(nil, t)
}

// PerturbTensorInto computes PerturbTensor(t) into dst when dst already
// has t's shape, and into a new tensor otherwise, and returns the result.
// It draws exactly the stream PerturbTensor draws. dst must not share
// storage with t.
func (n *NoiseModel) PerturbTensorInto(dst, t *tensor.Tensor) *tensor.Tensor {
	return n.PerturbInPlace(t.ReshapeInto(dst, t.Dims()...))
}

// PerturbInPlace applies the same additive RMS-scaled noise directly into
// t and returns it.
func (n *NoiseModel) PerturbInPlace(t *tensor.Tensor) *tensor.Tensor {
	if n.Sigma == 0 {
		return t
	}
	scale := t.RMS()
	data := t.Data()
	for i := range data {
		data[i] = n.Perturb(data[i], scale)
	}
	return t
}
