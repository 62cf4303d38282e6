package experiments

import (
	"flag"

	"hyperloop/internal/metrics"
)

// Scenarios is the registry, in `hl list` order. A name is what `hl NAME`
// runs; a group's Members are its explicit run order. Adding a study is one
// entry here plus `go test ./cmd/hl -update`: the pins make it smoke-run,
// golden-pinned and (where Workers is set) determinism-gated.
var Scenarios = []Scenario{
	// §2.2 motivation.
	{Name: "motivation", Doc: "Figure 2: native replication under multi-tenant co-location",
		Members: []string{"fig2a", "fig2b", "motivation-metrics"},
		Pins:    []Pin{{Args: "-quick", Heavy: true}}},
	{Name: "fig2a", Doc: "Figure 2(a): latency and context switches vs co-located replica-sets",
		Run: fig2Scenario("Figure 2(a): latency vs replica-sets (3 servers x 16 cores)", "sets",
			[]int{9, 12, 15, 18, 21, 24, 27}, []int{9, 18, 27},
			func(sets int) MotivationParams { return MotivationParams{ReplicaSets: sets} })},
	{Name: "fig2b", Doc: "Figure 2(b): latency and context switches vs cores per server",
		Run: fig2Scenario("Figure 2(b): latency vs cores per server (18 replica-sets)", "cores",
			[]int{2, 4, 6, 8, 10, 12, 14, 16}, []int{4, 8, 16},
			func(cores int) MotivationParams { return MotivationParams{ReplicaSets: 18, Cores: cores} })},
	{Name: "motivation-metrics", Doc: "prints nothing: the instrumented Figure 2 pass behind `hl motivation -metrics-json`",
		Run:  collectPass(func(e *Env) (*metrics.Registry, error) { return MotivationMetrics(e.Seed, 400) }),
		Pins: []Pin{{Workers: "-parallel N", Compare: Dump}}},

	// §6.1 microbenchmarks.
	{Name: "micro", Doc: "Figures 8-10, Table 2, multi-group co-location and the DESIGN §5 ablations",
		Members: []string{"fig8a", "fig8b", "table2", "fig9", "fig10", "multigroup", "ablations", "micro-metrics"},
		Pins:    []Pin{{Args: "-quick", Heavy: true}}},
	{Name: "fig8a", Doc: "Figure 8(a): gWRITE latency vs message size, HyperLoop vs Naive",
		Run:  latencyScenario("Figure 8(a): gWRITE latency", "gwrite"),
		Pins: []Pin{{Args: "-quick"}}},
	{Name: "fig8b", Doc: "Figure 8(b): gMEMCPY latency vs message size",
		Run: latencyScenario("Figure 8(b): gMEMCPY latency", "gmemcpy")},
	{Name: "table2", Doc: "Table 2: gCAS latency", Run: table2Scenario,
		Pins: []Pin{{Args: "-quick"}}},
	{Name: "fig9", Doc: "Figure 9: gWRITE throughput and replica CPU vs message size", Run: fig9Scenario},
	{Name: "fig10", Doc: "Figure 10: gWRITE p99 vs group size", Run: fig10Scenario},
	{Name: "multigroup", Doc: "probe-group latency with 1/16/64 replication groups sharing three servers", Run: multigroupScenario},
	{Name: "ablations", Doc: "DESIGN §5 ablations: gFLUSH, NIC forwarding, replenish period, scheduler model", Run: ablationsScenario},
	{Name: "micro-metrics", Doc: "prints nothing: the instrumented gWRITE pass behind `hl micro -metrics-json`",
		Run:  collectPass(func(e *Env) (*metrics.Registry, error) { return MicroMetrics(e.Seed, 2000) }),
		Pins: []Pin{{Workers: "-parallel N", Compare: Dump}}},
	{Name: "stages", Doc: "where a durable gWRITE's latency goes, stage by stage, HyperLoop vs Naive",
		Run: stagesScenario, Pins: []Pin{{Args: "-quick", Workers: "-parallel N"}}},
	{Name: "lockstages", Doc: "the same decomposition for a contended lock: NIC-resident retry program vs host-bounced loop",
		Run: lockstagesScenario, Pins: []Pin{{Args: "-quick", Workers: "-parallel N"}}},

	// §6.2 applications.
	{Name: "app", Doc: "Figures 11-12: YCSB on the RocksDB-style and MongoDB-style stores",
		Members: []string{"fig11", "fig12", "app-metrics"},
		Pins:    []Pin{{Args: "-quick", Heavy: true}}},
	{Name: "fig11", Doc: "Figure 11: replicated RocksDB under YCSB-A, three systems", Run: fig11Scenario,
		Pins: []Pin{{Args: "-quick"}}},
	{Name: "fig12", Doc: "Figure 12: MongoDB-style store under YCSB A/B/D/E/F, native vs HyperLoop", Run: fig12Scenario},
	{Name: "app-metrics", Doc: "prints nothing: the instrumented store pass behind `hl app -metrics-json`",
		Run:  collectPass(func(e *Env) (*metrics.Registry, error) { return AppMetrics(e.Seed, 2000) }),
		Pins: []Pin{{Workers: "-parallel N", Compare: Dump, Heavy: true}}},

	// The planes built on top: sharding, faults, restore, serving, QoS.
	{Name: "shard", Doc: "the sharded multi-group data plane: scaling curves plus migration chaos",
		Members: []string{"scaling", "pscaling", "migrate"}},
	{Name: "scaling", Doc: "aggregate gWRITE throughput and per-shard p99 vs 1..16 shards on a fixed 16-host pool",
		Run: scalingScenario, Pins: []Pin{{Args: "-quick", Workers: "-parallel N", Compare: Both, Heavy: true}}},
	{Name: "pscaling", Doc: "the 16-shard cell on the partitioned engine: identical results at every worker count",
		Run: pscalingScenario, Pins: []Pin{{Args: "-quick", Workers: "-engine-workers N", Compare: Dump, Heavy: true}}},
	{Name: "migrate", Doc: "live shard migration with a replica killed (or the destination re-tiered) mid-copy",
		Flags: func(fs *flag.FlagSet) { fs.Int("seeds", 4, "migration-inflight scenarios to run") },
		Run:   migrateScenario, Pins: []Pin{{Args: "-quick", Workers: "-parallel N"}}},
	{Name: "chaos", Doc: "the deterministic fault matrix: every fault class x seeds -> invariant verdicts",
		Flags: chaosFlags, Run: chaosScenario,
		Pins: []Pin{
			{Args: "-seeds-per-class 1 -engine-workers 4", Heavy: true},
			{Args: "-seeds-per-class 1 -classes partition,nic-stall,migration-inflight,lock-contention,cold-restore"},
		}},
	{Name: "restore", Doc: "ephemeral replicas: cold restore with RTO/RPO, the stream-shape sweep, CRAQ read offload",
		Run: restoreScenario, Pins: []Pin{{Workers: "-engine-workers N -parallel N", Compare: Both, Heavy: true}}},
	{Name: "load", Doc: "the open-loop serving plane through and past saturation, both arms",
		Members: []string{"curve", "fusion", "load-metrics"},
		Pins:    []Pin{{Args: "-quick", Workers: "-engine-workers N"}}},
	{Name: "curve", Doc: "goodput and p99.9 vs offered load, admission on and off", Flags: loadFlags, Run: curveScenario},
	{Name: "fusion", Doc: "doorbells vs WQE-chain fusion depth at saturation", Flags: loadFlags, Run: fusionScenario},
	{Name: "load-metrics", Doc: "prints nothing: the instrumented saturation point behind `hl load -metrics-json`",
		Run:  collectPass(func(e *Env) (*metrics.Registry, error) { return LoadMetrics(e.Seed, e.EngineWorkers) }),
		Pins: []Pin{{Workers: "-engine-workers N", Compare: Dump}}},
	{Name: "qos", Doc: "tenant isolation: a 10x aggressor burst throttled, funded onto edge hosts, capped",
		Flags: durationFlag, Run: qosScenario,
		Pins: []Pin{{Workers: "-engine-workers N", Compare: Both, Heavy: true}}},
	{Name: "tenants", Doc: "the tenant-cardinality sweep: N equal classes, past the 256-label bound",
		Flags: tenantsFlags, Run: tenantsScenario,
		Pins: []Pin{{Args: "-tenants 300", Workers: "-engine-workers N", Compare: Both}}},

	// Tooling.
	{Name: "verify", Doc: "the differential conformance oracle: fast models vs exact shadows, both arms' end state",
		Flags: verifyFlags, Run: verifyScenario,
		Pins: []Pin{{Args: "-seeds 5 -n 100000", Heavy: true}, {Args: "-n 2000", Workers: "-parallel N"}}},
	{Name: "trace", Doc: "one durable gWRITE narrated NIC event by NIC event (the instant smoke)",
		Flags: traceFlags, Run: traceScenario, Pins: []Pin{{}}},
	{Name: "stats", Doc: "render a -metrics-json dump as a text dashboard", Operand: "FILE",
		Flags: statsFlags, Run: statsScenario, Pins: []Pin{{Args: "testdata/dump.json"}}},
}

// collectPass wraps a dedicated instrumented pass as a print-nothing
// scenario: it runs only when a dump was requested, and what it gathers is
// the dump.
func collectPass(pass func(*Env) (*metrics.Registry, error)) func(*Env) error {
	return func(e *Env) error {
		if e.Metrics == nil {
			return nil
		}
		reg, err := pass(e)
		e.Merge(reg)
		return err
	}
}
