package experiments

import "hyperloop/internal/metrics"

// Instrumented collection passes over the application and motivation rigs,
// mirroring MicroMetrics: one cell per configuration, each with a private
// registry sampled on the virtual clock, merged in input order — so the
// dump is bit-identical at any -parallel worker count.

// AppMetrics drives one RocksDB and one MongoDB cell per system (HyperLoop
// vs Naive-Polling) with the observability plane attached and merges the
// registries in input order.
func AppMetrics(seed int64, ops int) (*metrics.Registry, error) {
	systems := []System{HyperLoop, NaivePolling}
	return collectCells("app", 2*len(systems), func(i int) (*metrics.Registry, error) {
		reg := metrics.NewRegistry()
		p := AppParams{
			System: systems[i%len(systems)], Ops: ops, Records: 500,
			TenantsPerCore: 10, Seed: seed, Metrics: reg,
		}
		var err error
		if i < len(systems) {
			_, err = RocksDB(p)
		} else {
			_, err = MongoDB(p)
		}
		return reg, err
	})
}

// MotivationMetrics drives one Figure 2(a)-style cell per replica-set count
// with the observability plane attached and merges the registries in input
// order.
func MotivationMetrics(seed int64, opsPerSet int) (*metrics.Registry, error) {
	setCounts := []int{9, 18}
	return collectCells("motivation", len(setCounts), func(i int) (*metrics.Registry, error) {
		reg := metrics.NewRegistry()
		_, err := Motivation(MotivationParams{
			ReplicaSets: setCounts[i], OpsPerSet: opsPerSet, Seed: seed, Metrics: reg,
		})
		return reg, err
	})
}
