package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"

	"github.com/inca-arch/inca/internal/bin"
	"github.com/inca-arch/inca/internal/metrics"
	"github.com/inca-arch/inca/internal/nn"
)

// The binary body of a report: the exact state the JSON wire form is
// derived from, in internal/bin's primitives. The result store writes
// it after each record's key and timestamp. Its layout is
//
//	arch, network  string each
//	phase   1 byte (0 inference, 1 training)
//	batch   varint
//	total   result
//	layers  uvarint count, then per layer:
//	        name string, kind 1 byte, result,
//	        utilization float, allocated cells varint
//
// where a result is the six energy components in bodyComponents order
// and the latency, each a float, then the seven counts as varints.
//
// Figures the wire form derives (energy totals, per-image energy,
// throughput, network utilization) are not in the body: they recompute
// exactly, so Wire of a read body is byte-identical to Wire of the
// report that was appended.

// bodyComponents is the order a result's energy components take in a
// body. It is the format, not a view of metrics.Components: a new
// component needs a new store segment version.
var bodyComponents = [...]metrics.Component{
	metrics.DRAM, metrics.Buffer, metrics.RRAMArray, metrics.ADC, metrics.DAC, metrics.Digital,
}

// minLayerLen is the fewest bytes one body layer can take: empty name,
// kind, eight floats and eight one-byte varints. It bounds the layer
// count a body can claim before anything is allocated for it.
const minLayerLen = 1 + 1 + 8*8 + 8

// AppendBody appends the report's binary body to b. It refuses a report
// the JSON form could not carry (see checkBody), so every body it
// writes reads back and renders to a wire form that decodes again.
func (r *Report) AppendBody(b []byte) ([]byte, error) {
	if err := r.checkBody(); err != nil {
		return b, err
	}
	b = bin.AppendString(b, r.Arch)
	b = bin.AppendString(b, r.Network)
	b = append(b, byte(r.Phase))
	b = binary.AppendVarint(b, int64(r.Batch))
	b = appendResult(b, &r.Total)
	b = binary.AppendUvarint(b, uint64(len(r.Layers)))
	for i := range r.Layers {
		lr := &r.Layers[i]
		b = bin.AppendString(b, lr.Layer.Name)
		b = append(b, byte(lr.Layer.Kind))
		b = appendResult(b, &lr.Result)
		b = bin.AppendFloat(b, lr.Utilization)
		b = binary.AppendVarint(b, lr.AllocatedCells)
	}
	return b, nil
}

func appendResult(b []byte, res *metrics.Result) []byte {
	for _, c := range bodyComponents {
		b = bin.AppendFloat(b, res.Energy.Of(c))
	}
	b = bin.AppendFloat(b, res.Latency)
	for _, n := range [...]int64{
		res.Counts.RRAMReads, res.Counts.RRAMWrites, res.Counts.ADCConversions, res.Counts.DACConversions,
		res.Counts.BufferAccesses, res.Counts.DRAMAccesses, res.Counts.DigitalOps,
	} {
		b = binary.AppendVarint(b, n)
	}
	return b
}

// ReadBody reads one body from r. It accepts exactly the bodies
// AppendBody can write: anything r rejects, an unknown phase or layer
// kind, and any report checkBody refuses fail r. It returns nil once r
// has failed; the caller reads the error from r.
func ReadBody(r *bin.Reader) *Report {
	rep := &Report{Arch: r.Str(), Network: r.Str(), Phase: Phase(r.Byte()), Batch: r.Int()}
	rep.Total = readResult(r)
	if n := r.Count(minLayerLen); n > 0 {
		rep.Layers = make([]LayerResult, n)
	}
	for i := 0; r.Err() == nil && i < len(rep.Layers); i++ {
		lr := &rep.Layers[i]
		lr.Layer.Name = r.Str()
		lr.Layer.Kind = nn.Kind(r.Byte())
		lr.Result = readResult(r)
		lr.Utilization = r.Float()
		lr.AllocatedCells = r.Varint()
	}
	r.Fail(rep.checkBody())
	if r.Err() != nil {
		return nil
	}
	return rep
}

// readResult reads one result. Each energy component is checked before
// it is deposited, because metrics.Energy.Add panics on a negative or
// NaN one; checkBody re-checks the rest once the report is whole.
func readResult(r *bin.Reader) metrics.Result {
	var res metrics.Result
	for _, c := range bodyComponents {
		v := r.Float()
		if !validEnergy(v) {
			r.Fail(fmt.Errorf("sim: invalid %v energy %v", c, v))
			return res
		}
		res.Energy.Add(c, v)
	}
	res.Latency = r.Float()
	for _, p := range [...]*int64{
		&res.Counts.RRAMReads, &res.Counts.RRAMWrites, &res.Counts.ADCConversions, &res.Counts.DACConversions,
		&res.Counts.BufferAccesses, &res.Counts.DRAMAccesses, &res.Counts.DigitalOps,
	} {
		*p = r.Varint()
	}
	return res
}

// validEnergy reports whether an energy component survives the JSON
// form: finite, non-negative and not negative zero.
func validEnergy(v float64) bool { return finite(v) && !math.Signbit(v) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkBody refuses a report the JSON form cannot carry, so that a body
// always renders to a wire form WireReport.Report accepts and that
// re-encodes to the same body: a totals-only report (its layers are
// gone); a string that is not valid UTF-8 (encoding/json would rewrite
// it); a phase or layer kind outside the defined ones; a stored float
// that is NaN or ±Inf; an energy component that is negative or −0; or
// a derived figure (an energy total, per-image energy, throughput,
// utilization) that overflows.
func (r *Report) checkBody() error {
	if r.TotalsOnly() {
		return errors.New("sim: a totals-only report has no body")
	}
	if r.Phase != Inference && r.Phase != Training {
		return fmt.Errorf("sim: unknown phase %d", int(r.Phase))
	}
	if !utf8.ValidString(r.Arch) || !utf8.ValidString(r.Network) {
		return errors.New("sim: report string is not valid UTF-8")
	}
	if err := checkResult(&r.Total); err != nil {
		return err
	}
	for i := range r.Layers {
		lr := &r.Layers[i]
		if lr.Layer.Kind < nn.Conv || lr.Layer.Kind > nn.Add {
			return fmt.Errorf("sim: unknown layer kind %d", int(lr.Layer.Kind))
		}
		if !utf8.ValidString(lr.Layer.Name) {
			return errors.New("sim: layer name is not valid UTF-8")
		}
		if !finite(lr.Utilization) {
			return fmt.Errorf("sim: layer %q utilization %v", lr.Layer.Name, lr.Utilization)
		}
		if err := checkResult(&lr.Result); err != nil {
			return err
		}
	}
	perImage, _ := r.EnergyPerImage()
	if !finite(perImage) || !finite(r.Throughput()) || !finite(r.Utilization()) {
		return errors.New("sim: report has a non-finite derived figure")
	}
	return nil
}

func checkResult(res *metrics.Result) error {
	for _, c := range bodyComponents {
		if v := res.Energy.Of(c); !validEnergy(v) {
			return fmt.Errorf("sim: invalid %v energy %v", c, v)
		}
	}
	if !finite(res.Latency) || !finite(res.Energy.Total()) {
		return fmt.Errorf("sim: non-finite result (latency %v, energy %v)", res.Latency, res.Energy.Total())
	}
	return nil
}
