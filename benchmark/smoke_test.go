package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The schema gate: BENCHMARK.json and the harness agree on every metric, and
// every workload — at ~1% of its op count — passes its output verification
// and emits each declared metric under its declared unit, traced and
// untraced. CI can call this instead of a full run.

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness is sized for %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, harness has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d end-to-end / %d per-layer metrics, harness has %d / %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, harness declares %+v", i, m, d)
		}
		if m.Bound < d.floor || m.Bound < 0.01 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [max(floor %v, 1%%), 25%%]", m.Name, m.Bound, d.floor)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, harness declares %+v", i, m, d)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			rep := runOne(findWorkload(w.Name), 1, 0.01, traced)
			if !rep.correct {
				t.Errorf("%s traced=%v: %d/%d failed, err %v", w.Name, traced, rep.failed, rep.attempted, rep.err)
				continue
			}
			check := func(name, unit string, nonZero bool) {
				v, ok := rep.values[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case v.Unit != unit:
					t.Errorf("%s traced=%v: %s in %q, declared %q", w.Name, traced, name, v.Unit, unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (nonZero && v.Value == 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, name, v.Value)
				}
			}
			if traced {
				// A traced pass fails its run when tracing moves a modeled
				// latency, so correct above already covers sim_* identity.
				if len(rep.values) != len(b.PerLayer) {
					t.Errorf("%s: %d per-layer values, %d declared", w.Name, len(rep.values), len(b.PerLayer))
				}
				for _, m := range b.PerLayer {
					check(m.Name, m.Unit, false)
				}
				continue
			}
			if len(rep.values) != len(b.EndToEnd) {
				t.Errorf("%s: %d end-to-end values, %d declared", w.Name, len(rep.values), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				check(m.Name, m.Unit, true)
			}
		}
	}
}

func TestSameSeedSameModeledNumbers(t *testing.T) {
	w := findWorkload("prims")
	a, b := runOne(w, 5, 0.01, false), runOne(w, 5, 0.01, false)
	for _, d := range endToEnd {
		if d.clock == "sim" && a.values[d.name] != b.values[d.name] {
			t.Errorf("%s: %v then %v for the same seed", d.name, a.values[d.name], b.values[d.name])
		}
	}
}
