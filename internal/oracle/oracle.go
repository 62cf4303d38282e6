// Package oracle is the differential/metamorphic conformance suite for the
// simulation stack. Every headline number the reproduction reports flows
// through fast approximate models — log-bucketed histograms, the
// incremental zipfian generator, hand-rolled WQE codecs, the interval-set
// dirty tracker, and two independent datapath implementations — and a bug
// in any of them bends the curves silently instead of failing a test. Each
// check here validates one fast path against an exact shadow
// implementation:
//
//  1. stats.Histogram percentiles vs sort-based exact percentiles,
//     asserting the documented <1.6% sub-bucket error bound;
//  2. sim.Zipf empirical frequencies vs the analytic zipfian pmf
//     (chi-square), including the Grow path YCSB-D inserts exercise;
//  3. rdma.WQE Encode/Decode round-trips, including host/HW ownership-flag
//     preservation (the bit remote work request manipulation toggles);
//  4. nvm.Device interval-set dirty tracking vs a naive per-byte shadow
//     map under random Write/Store/Flush/PowerFail sequences;
//  5. end-to-end result equivalence: HyperLoop (internal/core) and
//     Naïve-RDMA (internal/naive) driven with the same seed and operation
//     stream must leave byte-identical replica store images and identical
//     gCAS result maps — latency may differ, state may not;
//  6. load.Poisson/load.BModel arrival processes vs their analytic
//     signatures: exponential mean and unit CV for Poisson, rate
//     conservation plus a windowed-dispersion burstiness contrast for the
//     b-model cascade.
//
// The suite runs in `go test` (seeds 1-5) and in CI; cmd/hl verify exposes
// it with -seed/-n flags for long soak runs.
package oracle

import (
	"fmt"
	"strings"
)

// Report is the outcome of one conformance check.
type Report struct {
	Name    string
	Detail  string             // human-readable summary of what was measured
	Metrics map[string]float64 // measured statistics (error bounds, chi-square, ops)
	Err     error              // nil = conformant
}

// Passed reports whether the check found no divergence.
func (r Report) Passed() bool { return r.Err == nil }

func (r Report) String() string {
	status := "ok"
	if r.Err != nil {
		status = "DIVERGENCE: " + r.Err.Error()
	}
	return fmt.Sprintf("%-12s %s (%s)", r.Name, status, r.Detail)
}

// failf builds a failed report.
func failf(name, detail string, metrics map[string]float64, format string, args ...any) Report {
	return Report{Name: name, Detail: detail, Metrics: metrics, Err: fmt.Errorf(format, args...)}
}

// RunAll executes every cross-check at the given seed. n scales the sample
// and operation counts (see each check for how); n <= 0 takes a default
// suitable for CI.
func RunAll(seed int64, n int) []Report {
	if n <= 0 {
		n = 20000
	}
	return []Report{
		CheckHistogram(seed, n),
		CheckZipf(seed, n),
		CheckWQE(seed, n),
		CheckNVM(seed, n),
		CheckEquivalence(seed, equivalenceOps(n)),
		CheckArrivals(seed, n),
	}
}

// equivalenceOps scales the end-to-end op count from the sample budget: the
// differential run is a full dual-cluster simulation, so it gets n/100 ops
// (bounded to [100, 5000]) rather than n raw samples.
func equivalenceOps(n int) int {
	ops := n / 100
	if ops < 100 {
		ops = 100
	}
	if ops > 5000 {
		ops = 5000
	}
	return ops
}

// Summarize renders a multi-line report block and reports overall success.
func Summarize(reports []Report) (string, bool) {
	var b strings.Builder
	ok := true
	for _, r := range reports {
		b.WriteString(r.String())
		b.WriteByte('\n')
		if !r.Passed() {
			ok = false
		}
	}
	return b.String(), ok
}
