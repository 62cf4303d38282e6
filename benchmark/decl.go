package main

import "fmt"

// metricDecl declares one metric: its unit, which way is better, the clock
// it is read from, and — end to end — the floor under its calibrated bound.
//
// Clocks: "sim" is the modeled clock or a counter of modeled work
// (deterministic for a seed: two commits compare exactly); "host" is wall
// time on this machine; "runtime" is the Go runtime's own accounting.
type metricDecl struct {
	name   string
	unit   string
	better string
	clock  string
	floor  float64
}

// endToEnd is what a user of the system sees, the same names on every
// workload. BENCHMARK.json carries the calibrated bound of each
// (CALIBRATION.md shows the spreads they were derived from).
var endToEnd = []metricDecl{
	{"sim_p50_us", "us", "lower", "sim", 0.01},
	{"sim_p99_us", "us", "lower", "sim", 0.01},
	{"sim_p999_us", "us", "lower", "sim", 0.01},
	{"sim_goodput_kops", "kops", "higher", "sim", 0.01},
	{"sim_max_rate_kops", "kops", "higher", "sim", 0.01},
	{"wall_us_per_op", "us", "lower", "host", 0.15},
	{"allocs_per_op", "count", "lower", "runtime", 0.01},
	{"alloc_kb_per_op", "KiB", "lower", "runtime", 0.01},
	{"peak_rss_mb", "MiB", "lower", "host", 0.15},
	{"setup_s", "s", "lower", "host", 0.25},
}

// ladderLayers are the rungs of the layer ladder, bottom up; naive is a side
// rung standing on rdma.
var ladderLayers = []string{"sim", "fabric", "rdma", "core", "naive", "wal", "kvstore", "shard", "load"}

// servedRungs is the frozen offered-rate ladder of the served workload, in
// kops. The knee (114 kops capacity at the anchor commit) lies strictly
// inside it.
var servedRungs = []int{80, 90, 100, 110, 120, 130, 140}

// stageNames is the fixed stage order of the bridged NIC trace table.
var stageNames = []string{
	"client-issue", "client-post", "network", "nic-forward", "host-cpu", "nic-stall", "ack-deliver",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	d := []metricDecl{
		{name: "sim.events_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "sim.wall_ns_per_event", unit: "ns", better: "lower", clock: "host"},
		{name: "fabric.msgs_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "fabric.bytes_per_op", unit: "B", better: "lower", clock: "sim"},
		{name: "fabric.bytes_per_user_byte", unit: "ratio", better: "lower", clock: "sim"},
		{name: "rdma.wqes_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "rdma.doorbells_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "rdma.cache_flushes_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "rdma.prog_branches_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "rdma.rnr_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "core.fused_ops_per_batch", unit: "count", better: "higher", clock: "sim"},
		{name: "naive.handler_activations_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "naive.p99_over_hl_p99", unit: "ratio", better: "higher", clock: "sim"},
		{name: "cpusched.ctxsw_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "cpusched.mean_queue_wait_us", unit: "us", better: "lower", clock: "sim"},
		{name: "cpusched.replica_util", unit: "ratio", better: "lower", clock: "sim"},
		{name: "wal.appends_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "wal.executes_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "kvstore.sim_get_p99_us", unit: "us", better: "lower", clock: "sim"},
		{name: "kvstore.sim_put_p99_us", unit: "us", better: "lower", clock: "sim"},
		{name: "locks.retries_per_acquire", unit: "count", better: "lower", clock: "sim"},
		{name: "locks.undos_per_acquire", unit: "count", better: "lower", clock: "sim"},
		{name: "txn.abort_frac", unit: "ratio", better: "lower", clock: "sim"},
		{name: "txn.sim_commit_p99_us", unit: "us", better: "lower", clock: "sim"},
		{name: "load.shed_frac", unit: "ratio", better: "lower", clock: "sim"},
		{name: "load.unserved_frac", unit: "ratio", better: "lower", clock: "sim"},
		{name: "load.queue_peak", unit: "count", better: "lower", clock: "sim"},
		{name: "load.doorbells_per_op", unit: "count", better: "lower", clock: "sim"},
		{name: "load.fused_ops_per_batch", unit: "count", better: "higher", clock: "sim"},
		{name: "load.generator_late_us", unit: "us", better: "lower", clock: "sim"},
	}
	for _, r := range servedRungs {
		d = append(d, metricDecl{name: fmt.Sprintf("load.sim_p99_us_at_%d", r), unit: "us", better: "lower", clock: "sim"})
	}
	d = append(d,
		metricDecl{name: "runtime.gc_cycles_per_kop", unit: "count", better: "lower", clock: "runtime"},
		metricDecl{name: "runtime.wall_mean_us_per_op", unit: "us", better: "lower", clock: "host"},
		metricDecl{name: "runtime.wall_p10_us_per_op", unit: "us", better: "lower", clock: "host"},
		metricDecl{name: "harness.fail_frac", unit: "ratio", better: "lower", clock: "sim"},
	)
	for _, l := range ladderLayers {
		d = append(d,
			metricDecl{name: l + ".ladder_wall_ns", unit: "ns", better: "lower", clock: "host"},
			metricDecl{name: l + ".ladder_allocs", unit: "count", better: "lower", clock: "runtime"},
			metricDecl{name: l + ".ladder_sim_ns", unit: "ns", better: "lower", clock: "sim"},
			metricDecl{name: l + ".self_wall_ns", unit: "ns", better: "lower", clock: "host"},
			metricDecl{name: l + ".self_allocs", unit: "count", better: "lower", clock: "runtime"},
			metricDecl{name: l + ".self_sim_ns", unit: "ns", better: "lower", clock: "sim"},
		)
	}
	d = append(d,
		metricDecl{name: "fabric.ladder_wall_ns_64b", unit: "ns", better: "lower", clock: "host"},
		metricDecl{name: "fabric.ladder_wall_ns_8k", unit: "ns", better: "lower", clock: "host"},
	)
	for _, s := range stageNames {
		d = append(d, metricDecl{name: "stage." + s + "_us", unit: "us", better: "lower", clock: "sim"})
	}
	d = append(d,
		metricDecl{name: "stage.total_us", unit: "us", better: "lower", clock: "sim"},
		metricDecl{name: "trace.events_per_op", unit: "count", better: "lower", clock: "sim"},
		metricDecl{name: "trace.overhead_frac", unit: "ratio", better: "lower", clock: "host"},
	)
	return d
}

func findDecl(decls []metricDecl, name string) *metricDecl {
	for i := range decls {
		if decls[i].name == name {
			return &decls[i]
		}
	}
	return nil
}
