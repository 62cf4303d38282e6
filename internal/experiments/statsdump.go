package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

func statsFlags(fs *flag.FlagSet) {
	fs.String("filter", "", "only show series whose subsystem/name/label contains this substring")
}

// statsScenario renders a text dashboard from a -metrics-json dump. The dump
// is pure data (virtual-time counters, gauges and latency histograms), so
// the dashboard is a pure function of the file — diffing two renders diffs
// two runs.
func statsScenario(e *Env) error {
	if len(e.Operands) != 1 {
		return fmt.Errorf("%w: stats renders exactly one dump FILE", ErrUsage)
	}
	data, err := os.ReadFile(e.Operands[0])
	if err != nil {
		return err
	}
	d, err := metrics.ParseJSON(data)
	if err != nil {
		return fmt.Errorf("%s: %w", e.Operands[0], err)
	}
	filter := e.Str("filter")
	keep := func(subsystem, name, label string) bool {
		return strings.Contains(subsystem+"/"+name+"/"+label, filter)
	}
	// section prints a table under its rule unless the filter emptied it.
	section := func(rule string, t *stats.Table, rows int) {
		if rows > 0 {
			e.Println(rule)
			e.Table(t)
		}
	}
	e.Printf("=== metrics dump: sampled at %v virtual ===\n", sim.Time(d.SampledAtNs))

	t, n := stats.NewTable("series", "label", "value", "rate/s"), 0
	for _, c := range d.Counters {
		if !keep(c.Subsystem, c.Name, c.Label) {
			continue
		}
		n++
		rate := "-"
		if c.Rate != 0 {
			rate = fmt.Sprintf("%.1f", c.Rate)
		}
		t.AddRow(c.Subsystem+"/"+c.Name, c.Label, fmt.Sprintf("%.0f", c.Value), rate)
	}
	section("--- counters ---", t, n)

	t, n = stats.NewTable("series", "label", "value"), 0
	for _, g := range d.Gauges {
		if keep(g.Subsystem, g.Name, g.Label) {
			n++
			t.AddRow(g.Subsystem+"/"+g.Name, g.Label, fmt.Sprintf("%g", g.Value))
		}
	}
	section("--- gauges ---", t, n)

	t, n = stats.NewTable("series", "label", "count", "mean", "p50", "p99", "max"), 0
	quantile := func(h metrics.JSONHist, p string) string {
		if v, ok := h.Quantiles[p]; ok {
			return us(sim.Duration(v))
		}
		return "-"
	}
	for _, h := range d.Histograms {
		if keep(h.Subsystem, h.Name, h.Label) {
			n++
			t.AddRow(h.Subsystem+"/"+h.Name, h.Label, fmt.Sprint(h.Count),
				us(sim.Duration(h.MeanNs)), quantile(h, "50"), quantile(h, "99"), us(sim.Duration(h.MaxNs)))
		}
	}
	section("--- histograms (virtual-time latencies) ---", t, n)
	return nil
}
