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
	systems := []System{HyperLoop, NaiveEvent}
	cells, err := RunParallel(Parallelism(), len(systems), func(i int) (*metrics.Registry, error) {
		return RunMicroMetrics(MicroParams{
			System: systems[i], Ops: ops, TenantsPerCore: 10, Durable: true, Seed: seed,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("micro metrics: %w", err)
	}
	merged := metrics.NewRegistry()
	for _, c := range cells {
		merged.Merge(c)
	}
	return merged, nil
}
