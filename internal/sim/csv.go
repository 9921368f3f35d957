package sim

import (
	"encoding/csv"
	"fmt"
	"io"

	"github.com/inca-arch/inca/internal/metrics"
)

// WriteCSV exports the report's per-layer trace — energies by component,
// latency, utilization, and raw event counts — as CSV, with a final TOTAL
// row. The format is stable for downstream analysis tooling. A
// totals-only report has no trace to export and fails with
// ErrEmptyReport.
func (r *Report) WriteCSV(w io.Writer) error {
	if r.totalsOnly {
		return fmt.Errorf("%w: totals-only report has no per-layer rows", ErrEmptyReport)
	}
	cw := csv.NewWriter(w)
	header := []string{
		"layer", "kind",
		"energy_total_J", "energy_dram_J", "energy_buffer_J", "energy_rram_J",
		"energy_adc_J", "energy_dac_J", "energy_digital_J",
		"latency_s", "utilization",
		"rram_reads", "rram_writes", "adc_conversions", "dac_conversions",
		"buffer_accesses", "dram_bytes", "digital_ops",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("sim: writing csv header: %w", err)
	}
	row := func(name, kind string, res metrics.Result, util float64) []string {
		return []string{
			name, kind,
			fmt.Sprintf("%.6e", res.Energy.Total()),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.DRAM)),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.Buffer)),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.RRAMArray)),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.ADC)),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.DAC)),
			fmt.Sprintf("%.6e", res.Energy.Of(metrics.Digital)),
			fmt.Sprintf("%.6e", res.Latency),
			fmt.Sprintf("%.4f", util),
			fmt.Sprint(res.Counts.RRAMReads),
			fmt.Sprint(res.Counts.RRAMWrites),
			fmt.Sprint(res.Counts.ADCConversions),
			fmt.Sprint(res.Counts.DACConversions),
			fmt.Sprint(res.Counts.BufferAccesses),
			fmt.Sprint(res.Counts.DRAMAccesses),
			fmt.Sprint(res.Counts.DigitalOps),
		}
	}
	for _, lr := range r.Layers {
		if err := cw.Write(row(lr.Layer.Name, lr.Layer.Kind.String(), lr.Result, lr.Utilization)); err != nil {
			return fmt.Errorf("sim: writing csv row: %w", err)
		}
	}
	if err := cw.Write(row("TOTAL", "-", r.Total, r.Utilization())); err != nil {
		return fmt.Errorf("sim: writing csv total: %w", err)
	}
	cw.Flush()
	return cw.Error()
}
