package sim

import (
	"encoding/json"
	"fmt"
	"math"

	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
)

// JSON encoding of reports. metrics.Energy keeps its per-component tally
// unexported, so the standard encoder would render it as "{}"; the DTOs
// below spell every field out explicitly, giving the HTTP service (and
// any other machine consumer) a stable, self-describing schema. Field
// names and units are frozen: energies in joules, latencies in seconds,
// the phase as its display string. Two reports that are equal produce
// byte-identical encodings, which the serve load tests rely on.

type energyJSON struct {
	TotalJ   float64 `json:"total_j"`
	DRAMJ    float64 `json:"dram_j"`
	BufferJ  float64 `json:"buffer_j"`
	RRAMJ    float64 `json:"rram_j"`
	ADCJ     float64 `json:"adc_j"`
	DACJ     float64 `json:"dac_j"`
	DigitalJ float64 `json:"digital_j"`
}

func encodeEnergy(e metrics.Energy) energyJSON {
	return energyJSON{
		TotalJ:   e.Total(),
		DRAMJ:    e.Of(metrics.DRAM),
		BufferJ:  e.Of(metrics.Buffer),
		RRAMJ:    e.Of(metrics.RRAMArray),
		ADCJ:     e.Of(metrics.ADC),
		DACJ:     e.Of(metrics.DAC),
		DigitalJ: e.Of(metrics.Digital),
	}
}

type countsJSON struct {
	RRAMReads      int64 `json:"rram_reads"`
	RRAMWrites     int64 `json:"rram_writes"`
	ADCConversions int64 `json:"adc_conversions"`
	DACConversions int64 `json:"dac_conversions"`
	BufferAccesses int64 `json:"buffer_accesses"`
	DRAMBytes      int64 `json:"dram_bytes"`
	DigitalOps     int64 `json:"digital_ops"`
}

func encodeCounts(c metrics.Counts) countsJSON {
	return countsJSON{
		RRAMReads:      c.RRAMReads,
		RRAMWrites:     c.RRAMWrites,
		ADCConversions: c.ADCConversions,
		DACConversions: c.DACConversions,
		BufferAccesses: c.BufferAccesses,
		DRAMBytes:      c.DRAMAccesses,
		DigitalOps:     c.DigitalOps,
	}
}

type resultJSON struct {
	Energy   energyJSON `json:"energy"`
	LatencyS float64    `json:"latency_s"`
	Counts   countsJSON `json:"counts"`
}

func encodeResult(r metrics.Result) resultJSON {
	return resultJSON{Energy: encodeEnergy(r.Energy), LatencyS: r.Latency, Counts: encodeCounts(r.Counts)}
}

type layerJSON struct {
	Name           string     `json:"name"`
	Kind           string     `json:"kind"`
	Result         resultJSON `json:"result"`
	Utilization    float64    `json:"utilization"`
	AllocatedCells int64      `json:"allocated_cells"`
}

// WireReport is a report's stable JSON form. Report.MarshalJSON and
// UnmarshalJSON go through it, and a payload that embeds a *WireReport
// directly (the cluster shard wire) encodes to the same bytes as the
// report itself while skipping the marshal-then-splice pass. Wire and
// Report convert in each direction. Layers is null in the totals-only
// form (WireTotals) and an array, possibly empty, otherwise.
type WireReport struct {
	Arch            string      `json:"arch"`
	Network         string      `json:"network"`
	Phase           string      `json:"phase"`
	Batch           int         `json:"batch"`
	EnergyPerImageJ float64     `json:"energy_per_image_j"`
	ThroughputIPS   float64     `json:"throughput_ips"`
	Utilization     float64     `json:"utilization"`
	Total           resultJSON  `json:"total"`
	Layers          []layerJSON `json:"layers"`
}

// Wire builds the report's stable JSON form, with explicit units and
// derived per-image figures. EnergyPerImageJ is zero when the batch size
// is not positive (the error-returning accessor remains EnergyPerImage).
// A totals-only report keeps its totals-only form.
func (r *Report) Wire() *WireReport { return r.wire(!r.totalsOnly) }

// WireTotals builds the wire form without per-layer rows
// ("layers":null); every other field is Wire's. It is for consumers
// that keep only a report's totals, such as a sharded sweep's summary
// rows: the form is a fraction of the full one for deep networks, and
// Report decodes it into a totals-only report whose Utilization is the
// wire's.
func (r *Report) WireTotals() *WireReport { return r.wire(false) }

func (r *Report) wire(layers bool) *WireReport {
	out := &WireReport{
		Arch:          r.Arch,
		Network:       r.Network,
		Phase:         r.Phase.String(),
		Batch:         r.Batch,
		ThroughputIPS: r.Throughput(),
		Utilization:   r.Utilization(),
		Total:         encodeResult(r.Total),
	}
	if perImage, err := r.EnergyPerImage(); err == nil {
		out.EnergyPerImageJ = perImage
	}
	if !layers {
		return out
	}
	out.Layers = make([]layerJSON, 0, len(r.Layers))
	for _, lr := range r.Layers {
		out.Layers = append(out.Layers, layerJSON{
			Name:           lr.Layer.Name,
			Kind:           lr.Layer.Kind.String(),
			Result:         encodeResult(lr.Result),
			Utilization:    lr.Utilization,
			AllocatedCells: lr.AllocatedCells,
		})
	}
	return out
}

// MarshalJSON renders the report's stable JSON form (see Wire).
func (r *Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Wire())
}

// decodeEnergy rebuilds the per-component tally. The wire total is
// derived, so it is not read back: the decoded Total() recomputes it
// from the same component values, and a wire total that disagrees with
// it bit for bit is rejected. Components must be non-negative and not
// negative zero, which the tally would not keep.
func decodeEnergy(j energyJSON) (metrics.Energy, error) {
	var e metrics.Energy
	for _, c := range []struct {
		comp metrics.Component
		v    float64
	}{
		{metrics.DRAM, j.DRAMJ},
		{metrics.Buffer, j.BufferJ},
		{metrics.RRAMArray, j.RRAMJ},
		{metrics.ADC, j.ADCJ},
		{metrics.DAC, j.DACJ},
		{metrics.Digital, j.DigitalJ},
	} {
		if math.Signbit(c.v) {
			return e, fmt.Errorf("sim: negative %v energy %v", c.comp, c.v)
		}
		e.Add(c.comp, c.v)
	}
	return e, checkDerived("total_j", j.TotalJ, e.Total())
}

// checkDerived rejects a wire figure that disagrees with its
// recomputation from the decoded state, compared bit for bit so that
// re-encoding an accepted report reproduces the wire exactly.
func checkDerived(field string, wire, recomputed float64) error {
	if math.Float64bits(wire) != math.Float64bits(recomputed) {
		return fmt.Errorf("sim: wire %s %v disagrees with recomputed %v", field, wire, recomputed)
	}
	return nil
}

func decodeResult(j resultJSON) (metrics.Result, error) {
	energy, err := decodeEnergy(j.Energy)
	if err != nil {
		return metrics.Result{}, err
	}
	return metrics.Result{
		Energy:  energy,
		Latency: j.LatencyS,
		Counts: metrics.Counts{
			RRAMReads:      j.Counts.RRAMReads,
			RRAMWrites:     j.Counts.RRAMWrites,
			ADCConversions: j.Counts.ADCConversions,
			DACConversions: j.Counts.DACConversions,
			BufferAccesses: j.Counts.BufferAccesses,
			DRAMAccesses:   j.Counts.DRAMBytes,
			DigitalOps:     j.Counts.DigitalOps,
		},
	}, nil
}

// parseKindName inverts nn.Kind.String over the defined kinds.
func parseKindName(s string) (nn.Kind, error) {
	for k := nn.Conv; k <= nn.Add; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("sim: unknown layer kind %q", s)
}

// Report rebuilds a report from its stable wire form — the inverse of
// Report.Wire. Derived fields (throughput, per-image energy, the energy
// totals, utilization) are not read back: they recompute from the
// decoded state, and a wire form whose derived figures disagree is
// rejected, so Wire → Report → Wire is exact for every accepted input.
// A wire form with null layers decodes as a totals-only report, whose
// utilization is the wire's. Layer geometry is not part of the wire
// schema: decoded layers carry only name and kind.
func (w *WireReport) Report() (*Report, error) {
	phase, err := ParsePhase(w.Phase)
	if err != nil {
		return nil, err
	}
	total, err := decodeResult(w.Total)
	if err != nil {
		return nil, err
	}
	out := &Report{Arch: w.Arch, Network: w.Network, Phase: phase, Batch: w.Batch, Total: total}
	if w.Layers == nil {
		out.totalsOnly, out.wireUtil = true, w.Utilization
	} else if len(w.Layers) > 0 {
		out.Layers = make([]LayerResult, 0, len(w.Layers))
	}
	for _, lj := range w.Layers {
		kind, err := parseKindName(lj.Kind)
		if err != nil {
			return nil, err
		}
		res, err := decodeResult(lj.Result)
		if err != nil {
			return nil, err
		}
		out.Layers = append(out.Layers, LayerResult{
			Layer:          nn.Layer{Name: lj.Name, Kind: kind},
			Result:         res,
			Utilization:    lj.Utilization,
			AllocatedCells: lj.AllocatedCells,
		})
	}
	var perImage float64
	if p, err := out.EnergyPerImage(); err == nil {
		perImage = p
	}
	for _, d := range []struct {
		field            string
		wire, recomputed float64
	}{
		{"energy_per_image_j", w.EnergyPerImageJ, perImage},
		{"throughput_ips", w.ThroughputIPS, out.Throughput()},
		{"utilization", w.Utilization, out.Utilization()},
	} {
		if err := checkDerived(d.field, d.wire, d.recomputed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalJSON rebuilds a report from its stable wire encoding — the
// HTTP client's decode path (see WireReport.Report); marshal →
// unmarshal → marshal is byte-identical.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in WireReport
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	rep, err := in.Report()
	if err != nil {
		return err
	}
	*r = *rep
	return nil
}
