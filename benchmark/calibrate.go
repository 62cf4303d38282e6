package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Calibration derives every end-to-end bound from measured spread instead
// of a guess. It runs two sets of n full runs per workload — each run a
// fresh process with its own seed, the way the driver judges the benchmark —
// and commits per metric
//
//	max(floor, 3 × the largest of: either set's inter-quartile spread as a
//	share of its median, and the gap between the two sets' medians)
//
// taken over all workloads (BENCHMARK.json carries one bound per metric),
// capped at the contract's 0.25. The factor is 3, not 2, because the driver
// wants every observed spread below a third of its bound.

const (
	boundFactor = 3.0
	boundCap    = 0.25
)

type calibRun struct {
	Correct bool                   `json:"correct"`
	Metrics map[string]metricValue `json:"metrics"`
}

// oneRun executes one untraced run of workload w in a child process and
// parses the result line.
func oneRun(w string, seed int64, seconds int) (calibRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return calibRun{}, err
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return calibRun{}, fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r calibRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
	}
	if !r.Correct {
		return r, fmt.Errorf("%s seed %d: run reported incorrect outputs", w, seed)
	}
	return r, nil
}

// spreadOf is the inter-quartile range as a share of the median.
func spreadOf(v []float64) (med, q1, q3, spread float64) {
	med = median(v)
	q1, q3 = quartiles(v)
	return med, q1, q3, (q3 - q1) / math.Abs(med)
}

// boundFor applies the calibration rule to one metric's worst spread.
func boundFor(floor, worst float64) float64 {
	b := math.Max(floor, boundFactor*worst)
	b = math.Ceil(b*200-1e-9) / 200 // round up to 0.005
	return math.Min(b, boundCap)
}

func runCalibration(n int, seed int64, seconds int, only string) error {
	if n < 2 {
		return fmt.Errorf("-calibrate needs at least 2 runs per set")
	}
	names := workloadNames()
	if only != "" {
		if findWorkload(only) == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		names = []string{only}
	}
	worst := map[string]float64{}
	fmt.Printf("# Calibration\n\n")
	fmt.Printf("Two sets of %d full runs per workload, `-seconds %d`, every run a fresh process with its own seed "+
		"(set A seeds %d..%d, set B seeds %d..%d). Quartiles as Python's `statistics.quantiles(v, n=4)`; "+
		"spread = (q3 − q1) ÷ median; gap = |median B − median A| ÷ median A.\n\n",
		n, seconds, seed, seed+int64(n)-1, seed+int64(n), seed+2*int64(n)-1)
	for _, w := range names {
		sets := [2]map[string][]float64{{}, {}}
		for s := range sets {
			for i := 0; i < n; i++ {
				r, err := oneRun(w, seed+int64(s*n+i), seconds)
				if err != nil {
					return err
				}
				for _, d := range endToEnd {
					sets[s][d.name] = append(sets[s][d.name], r.Metrics[d.name].Value)
				}
			}
		}
		fmt.Printf("## %s\n\n", w)
		fmt.Printf("| metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | gap |\n")
		fmt.Printf("|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			ma, a1, a3, sa := spreadOf(sets[0][d.name])
			mb, b1, b3, sb := spreadOf(sets[1][d.name])
			gap := math.Abs(mb-ma) / math.Abs(ma)
			fmt.Printf("| %s | %s | %.6g [%.6g, %.6g] | %.2f%% | %.6g [%.6g, %.6g] | %.2f%% | %.2f%% |\n",
				d.name, d.unit, ma, a1, a3, 100*sa, mb, b1, b3, 100*sb, 100*gap)
			worst[d.name] = math.Max(worst[d.name], math.Max(gap, math.Max(sa, sb)))
		}
		fmt.Println()
	}
	fmt.Printf("## Bounds\n\n| metric | worst spread or gap, any workload | floor | bound = max(floor, %.0f × worst), cap %.2f |\n|---|---|---|---|\n",
		boundFactor, boundCap)
	type e2eDecl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var out []e2eDecl
	for _, d := range endToEnd {
		b := boundFor(d.floor, worst[d.name])
		note := ""
		if boundFactor*worst[d.name] > boundCap {
			note = " (capped: spread exceeds a third of the largest bound the contract allows)"
		}
		fmt.Printf("| %s | %.2f%% | %.1f%% | %.1f%%%s |\n", d.name, 100*worst[d.name], 100*d.floor, 100*b, note)
		out = append(out, e2eDecl{d.name, d.unit, d.better, b})
	}
	js, err := json.MarshalIndent(out, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("\n`end_to_end` for BENCHMARK.json:\n\n```json\n  %s\n```\n", js)
	return nil
}
