package experiments

import (
	"fmt"
	"strings"

	"hyperloop/internal/cluster"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
)

// Instrumented metrics collection over the microbenchmark rig: one cell per
// system, each with a private registry sampled on the virtual clock, merged
// in input order. The dump is therefore bit-identical at any -parallel
// worker count, and because every hook only observes, the op latencies are
// identical to an uninstrumented run.

// sysLabel is the metric-label form of a System name ("hyperloop",
// "naive-event", ...).
func sysLabel(s System) string { return strings.ToLower(s.String()) }

// RunMicroMetrics drives p.Ops durable gWRITEs on one system with the full
// observability plane attached and returns the cell's registry.
func RunMicroMetrics(p MicroParams) (*metrics.Registry, error) {
	p.fill()
	rig := newMicroRig(p)
	defer rig.close()

	reg := metrics.NewRegistry()
	label := sysLabel(p.System)
	cluster.Instrument(reg, rig.cl, label)
	acked := reg.Counter("micro", "ops_acked", label)
	lat := reg.Histogram("micro", "gwrite_latency_ns", label)
	sampler := metrics.NewSampler(rig.eng, reg, 100*sim.Microsecond)

	start := rig.eng.Now()
	_, err := rig.runOps(p.Ops, p.Pipeline, 120*sim.Second, func(i int, done func(error)) {
		issued := rig.eng.Now()
		rig.rep.Write(0, p.MsgSize, p.Durable, errOnly(func(opErr error) {
			if opErr == nil {
				acked.Inc()
				lat.Observe(rig.eng.Now().Sub(issued))
			}
			done(opErr)
		}))
	})
	sampler.Stop()
	reg.Sample(rig.eng.Now())
	reg.Gauge("micro", "run_seconds", label).Set(rig.eng.Now().Sub(start).Seconds())
	return reg, err
}

// MicroMetrics runs the HyperLoop and Naive-Event cells over the worker
// pool and merges their registries in input order.
func MicroMetrics(seed int64, ops int) (*metrics.Registry, error) {
	return collectCells("micro", len(microSystems), func(i int) (*metrics.Registry, error) {
		return RunMicroMetrics(MicroParams{
			System: microSystems[i], Ops: ops, TenantsPerCore: 10, Durable: true, Seed: seed,
		})
	})
}

// collectCells runs n instrumented cells over the worker pool, each with a
// private registry, and merges them in input order.
func collectCells(what string, n int, cell func(i int) (*metrics.Registry, error)) (*metrics.Registry, error) {
	cells, err := RunParallel(Parallelism(), n, cell)
	if err != nil {
		return nil, fmt.Errorf("%s metrics: %w", what, err)
	}
	return mergeRegistries(cells), nil
}

// mergeRegistries merges per-cell registries in input order — the fixed
// order is what makes the dump byte-identical at any worker count.
func mergeRegistries(cells []*metrics.Registry) *metrics.Registry {
	merged := metrics.NewRegistry()
	for _, c := range cells {
		merged.Merge(c)
	}
	return merged
}
