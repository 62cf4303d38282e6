package experiments

import (
	"errors"
	"flag"
	"sort"

	"hyperloop/internal/oracle"
)

func verifyFlags(fs *flag.FlagSet) {
	fs.Int("n", 100000, "sample/op budget per check")
	fs.Int("seeds", 1, "number of consecutive seeds to run")
}

// verifyScenario runs the differential conformance oracle: every fast
// approximate model in the simulation stack checked against an exact shadow
// implementation, plus the HyperLoop-vs-Naive end-to-end state equivalence
// run, at -seeds consecutive seeds (soak mode). Seeds fan over the worker
// pool and print in seed order.
func verifyScenario(e *Env) error {
	n, seeds := e.Int("n"), e.Int("seeds")
	if seeds < 1 {
		seeds = 1
	}
	all := seedMatrix(e.Seed, seeds, func(seed int64) []oracle.Report { return oracle.RunAll(seed, n) })
	ok := true
	for i, reports := range all {
		e.Printf("== oracle seed %d, n=%d ==\n", e.Seed+int64(i), n)
		text, pass := oracle.Summarize(reports)
		e.Printf("%s", text)
		printOracleMetrics(e, reports)
		ok = ok && pass
	}
	if !ok {
		return errors.New("conformance divergence detected")
	}
	// The prefix is part of the pinned output (testdata/verify-*.golden).
	e.Println("hlverify: all checks conformant")
	return nil
}

// printOracleMetrics dumps the measured statistics (error bounds,
// chi-square, op counts) so soak runs leave a calibration trail.
func printOracleMetrics(e *Env, reports []oracle.Report) {
	for _, r := range reports {
		if len(r.Metrics) == 0 {
			continue
		}
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Printf("   %s:", r.Name)
		for _, k := range keys {
			e.Printf(" %s=%.5g", k, r.Metrics[k])
		}
		e.Println()
	}
}
