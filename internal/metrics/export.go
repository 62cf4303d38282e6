// Metric export: Prometheus-style text and JSON. Both encoders order
// series by sorted (subsystem, name, label) key, so a dump is a pure
// function of registry contents — bit-reproducible across runs and worker
// counts once cells are merged in input order.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Percentile points exported for every histogram.
var exportPercentiles = []float64{50, 95, 99, 99.9, 100}

func sortedKeys[T any](m map[Key]T) []Key {
	keys := make([]Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// promName renders subsystem_name with characters outside [a-zA-Z0-9_]
// replaced by '_', matching Prometheus naming rules.
func promName(subsystem, name string) string {
	clean := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
				b.WriteRune(r)
			default:
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	return "hyperloop_" + clean(subsystem) + "_" + clean(name)
}

// promLabel escapes a label value for the text exposition format.
func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders floats the way Prometheus clients do: integral values
// without an exponent, others in shortest round-trip form.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ExportText renders the registry in Prometheus text exposition style.
// Counters also expose a _rate series (per virtual second, last window);
// histograms expose _count, _sum and quantile-tagged value series in
// nanoseconds of virtual time.
func (r *Registry) ExportText() string {
	var b strings.Builder
	lastType := ""
	typeLine := func(name, typ string) {
		if name != lastType {
			fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
			lastType = name
		}
	}
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		name := promName(k.Subsystem, k.Name)
		typeLine(name, "counter")
		fmt.Fprintf(&b, "%s{label=\"%s\"} %d\n", name, promLabel(k.Label), c.Value())
		if rate := c.Rate(); rate != 0 {
			fmt.Fprintf(&b, "%s_rate{label=\"%s\"} %s\n", name, promLabel(k.Label), formatFloat(rate))
		}
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		name := promName(k.Subsystem, k.Name)
		typeLine(name, "gauge")
		fmt.Fprintf(&b, "%s{label=\"%s\"} %s\n", name, promLabel(k.Label), formatFloat(g.Value()))
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k].h
		name := promName(k.Subsystem, k.Name)
		typeLine(name, "histogram")
		lbl := promLabel(k.Label)
		fmt.Fprintf(&b, "%s_count{label=\"%s\"} %d\n", name, lbl, h.Count())
		fmt.Fprintf(&b, "%s_sum{label=\"%s\"} %d\n", name, lbl, int64(h.Sum()))
		for _, p := range exportPercentiles {
			fmt.Fprintf(&b, "%s{label=\"%s\",quantile=\"%s\"} %d\n",
				name, lbl, formatFloat(p/100), int64(h.Percentile(p)))
		}
	}
	return b.String()
}

// JSONSeries is one exported series.
type JSONSeries struct {
	Subsystem string  `json:"subsystem"`
	Name      string  `json:"name"`
	Label     string  `json:"label"`
	Value     float64 `json:"value"`
	Rate      float64 `json:"rate,omitempty"`
}

// JSONHist is one exported histogram.
type JSONHist struct {
	Subsystem string           `json:"subsystem"`
	Name      string           `json:"name"`
	Label     string           `json:"label"`
	Count     uint64           `json:"count"`
	SumNs     int64            `json:"sum_ns"`
	MeanNs    int64            `json:"mean_ns"`
	MinNs     int64            `json:"min_ns"`
	MaxNs     int64            `json:"max_ns"`
	Quantiles map[string]int64 `json:"quantiles"`
}

// JSONDump is the full machine-readable form of a registry.
type JSONDump struct {
	SampledAtNs int64        `json:"sampled_at_ns"`
	Counters    []JSONSeries `json:"counters"`
	Gauges      []JSONSeries `json:"gauges"`
	Histograms  []JSONHist   `json:"histograms"`
}

// Dump builds the JSON-ready snapshot.
func (r *Registry) Dump() JSONDump {
	d := JSONDump{
		Counters:   []JSONSeries{},
		Gauges:     []JSONSeries{},
		Histograms: []JSONHist{},
	}
	if at, ok := r.LastSample(); ok {
		d.SampledAtNs = int64(at)
	}
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		d.Counters = append(d.Counters, JSONSeries{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Value: float64(c.Value()), Rate: c.Rate(),
		})
	}
	for _, k := range sortedKeys(r.gauges) {
		d.Gauges = append(d.Gauges, JSONSeries{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Value: r.gauges[k].Value(),
		})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k].h
		jh := JSONHist{
			Subsystem: k.Subsystem, Name: k.Name, Label: k.Label,
			Count: h.Count(), SumNs: int64(h.Sum()),
			MeanNs: int64(h.Mean()), MinNs: int64(h.Min()), MaxNs: int64(h.Max()),
			Quantiles: make(map[string]int64, len(exportPercentiles)),
		}
		for _, p := range exportPercentiles {
			jh.Quantiles[formatFloat(p)] = int64(h.Percentile(p))
		}
		d.Histograms = append(d.Histograms, jh)
	}
	return d
}

// ExportJSON renders the registry as indented JSON. encoding/json sorts map
// keys, so the output is deterministic.
func (r *Registry) ExportJSON() ([]byte, error) {
	out, err := json.MarshalIndent(r.Dump(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ParseJSON decodes a dump written by ExportJSON (used by cmd/hl stats).
func ParseJSON(data []byte) (JSONDump, error) {
	var d JSONDump
	err := json.Unmarshal(data, &d)
	return d, err
}
