// Command hlmicro regenerates the paper's microbenchmarks (§6.1):
// Figure 8(a/b), Table 2, Figure 9, Figure 10, and the DESIGN.md ablations.
//
// Usage:
//
//	hlmicro [-exp all|fig8a|fig8b|table2|fig9|fig10|ablations|stages|lockstages] [-quick] [-seed N] [-parallel N]
//	        [-metrics-json FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -exp stages decomposes durable-gWRITE latency into per-stage slices
// (client post, network, NIC forwarding, host CPU, ...) for HyperLoop vs
// the Naive baseline; -exp lockstages does the same for a contended lock
// acquisition, comparing the NIC-resident retry program against the
// host-bounced loop. Neither is part of -exp all, so the default output is
// unchanged. -metrics-json runs a dedicated instrumented collection pass
// (skipping the experiment tables) and dumps the merged metrics registry as
// JSON — bit-identical at any -parallel worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperloop/internal/experiments"
	"hyperloop/internal/prof"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

var (
	expFlag  = flag.String("exp", "all", "experiment: all, fig8a, fig8b, table2, fig9, fig10, multigroup, ablations, stages, lockstages")
	quick    = flag.Bool("quick", false, "reduced op counts for a fast run")
	csv      = flag.Bool("csv", false, "emit tables as CSV")
	seed     = flag.Int64("seed", 1, "simulation seed")
	parallel = flag.Int("parallel", 0, "worker count (0 = all cores, 1 = serial)")
	metJSON  = flag.String("metrics-json", "", "run an instrumented collection pass and dump the metrics registry as JSON to this file")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

// stopProf flushes any live profiles; os.Exit skips defers, so error paths
// call stopProfAndExit instead.
var stopProf = func() {}

func stopProfAndExit(code int) {
	stopProf()
	os.Exit(code)
}

func main() {
	flag.Parse()
	experiments.SetParallelism(*parallel)
	var err error
	stopProf, err = prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "profile: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()
	if *metJSON != "" {
		if err := dumpMetrics(*metJSON); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			stopProfAndExit(1)
		}
		return
	}
	ops := 10000
	totalBytes := 256 << 20
	sizes := experiments.MsgSizesLatency
	if *quick {
		ops = 1500
		totalBytes = 16 << 20
		sizes = []int{128, 1024, 8192}
	}
	base := experiments.MicroParams{Ops: ops, TenantsPerCore: 10, Durable: true, Seed: *seed}

	run := map[string]func() error{
		"fig8a": func() error { return latencySweep("Figure 8(a): gWRITE latency", "gwrite", sizes, base) },
		"fig8b": func() error { return latencySweep("Figure 8(b): gMEMCPY latency", "gmemcpy", sizes, base) },
		"table2": func() error {
			return table2(base)
		},
		"fig9": func() error {
			szs := experiments.MsgSizesThroughput
			if *quick {
				szs = []int{1024, 8192, 65536}
			}
			return fig9(szs, totalBytes)
		},
		"fig10": func() error { return fig10(sizes, base) },
		"multigroup": func() error {
			return multigroup(ops)
		},
		"ablations": func() error {
			return ablations(ops)
		},
		"stages": func() error {
			return stages(ops)
		},
		"lockstages": func() error {
			return lockstages(ops)
		},
	}
	order := []string{"fig8a", "fig8b", "table2", "fig9", "fig10", "multigroup", "ablations"}
	if *expFlag != "all" {
		order = []string{*expFlag}
	}
	for _, name := range order {
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			stopProfAndExit(2)
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			stopProfAndExit(1)
		}
	}
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fus", float64(d)/1000) }

func latencySweep(title, prim string, sizes []int, base experiments.MicroParams) error {
	fmt.Printf("=== %s (group=3, 10:1 co-location, durable) ===\n", title)
	rows, err := experiments.LatencySweep(prim, sizes,
		[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent}, base)
	if err != nil {
		return err
	}
	t := stats.NewTable("size", "HL-avg", "HL-p99", "Naive-avg", "Naive-p99", "p99-ratio")
	for _, r := range rows {
		hl := r.ByName["HyperLoop"]
		nv := r.ByName["Naive-Event"]
		t.AddRow(fmt.Sprint(r.MsgSize), us(hl.Mean), us(hl.P99), us(nv.Mean), us(nv.P99),
			fmt.Sprintf("%.0fx", float64(nv.P99)/float64(hl.P99)))
	}
	printTable(t)
	return nil
}

func table2(base experiments.MicroParams) error {
	fmt.Println("=== Table 2: gCAS latency (group=3, 10:1 co-location) ===")
	rows, err := experiments.LatencySweep("gcas", []int{1024},
		[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent}, base)
	if err != nil {
		return err
	}
	hl := rows[0].ByName["HyperLoop"]
	nv := rows[0].ByName["Naive-Event"]
	t := stats.NewTable("system", "avg", "p95", "p99")
	t.AddRow("Naive-RDMA", us(nv.Mean), us(nv.P95), us(nv.P99))
	t.AddRow("HyperLoop", us(hl.Mean), us(hl.P95), us(hl.P99))
	t.AddRow("ratio",
		fmt.Sprintf("%.1fx", float64(nv.Mean)/float64(hl.Mean)),
		fmt.Sprintf("%.1fx", float64(nv.P95)/float64(hl.P95)),
		fmt.Sprintf("%.1fx", float64(nv.P99)/float64(hl.P99)))
	printTable(t)
	return nil
}

func fig9(sizes []int, totalBytes int) error {
	fmt.Printf("=== Figure 9: gWRITE throughput + replica CPU (%d MB total) ===\n", totalBytes>>20)
	rows, err := experiments.ThroughputSweep(
		[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent}, sizes, totalBytes, *seed)
	if err != nil {
		return err
	}
	t := stats.NewTable("size", "HL-kops/s", "HL-cpu%core", "Naive-kops/s", "Naive-cpu%core")
	for _, r := range rows {
		hl := r.ByName["HyperLoop"]
		nv := r.ByName["Naive-Event"]
		t.AddRow(fmt.Sprint(r.MsgSize),
			fmt.Sprintf("%.0f", hl.KopsSec), fmt.Sprintf("%.1f", hl.CPUCorePct),
			fmt.Sprintf("%.0f", nv.KopsSec), fmt.Sprintf("%.1f", nv.CPUCorePct))
	}
	printTable(t)
	return nil
}

func fig10(sizes []int, base experiments.MicroParams) error {
	fmt.Println("=== Figure 10: gWRITE p99 vs group size (10:1 co-location) ===")
	groups := []int{3, 5, 7}
	t := stats.NewTable("size", "HL-g3", "HL-g5", "HL-g7", "Naive-g3", "Naive-g5", "Naive-g7")
	hl, err := experiments.GroupScaling(experiments.HyperLoop, groups, sizes, base)
	if err != nil {
		return err
	}
	nv, err := experiments.GroupScaling(experiments.NaiveEvent, groups, sizes, base)
	if err != nil {
		return err
	}
	at := func(rows []experiments.GroupScalingRow, g, m int) sim.Duration {
		for _, r := range rows {
			if r.GroupSize == g && r.MsgSize == m {
				return r.P99
			}
		}
		return 0
	}
	for _, m := range sizes {
		t.AddRow(fmt.Sprint(m),
			us(at(hl, 3, m)), us(at(hl, 5, m)), us(at(hl, 7, m)),
			us(at(nv, 3, m)), us(at(nv, 5, m)), us(at(nv, 7, m)))
	}
	printTable(t)
	return nil
}

// multigroup sweeps co-located replication groups sharing three servers —
// the multi-tenant deployment study (extension beyond the paper's figures).
func multigroup(ops int) error {
	fmt.Println("=== Multi-group co-location: probe-group gWRITE latency ===")
	counts := []int{1, 16, 64}
	systems := []experiments.System{experiments.HyperLoop, experiments.NaiveEvent}
	pts, err := experiments.RunParallel(experiments.Parallelism(), len(counts)*len(systems),
		func(i int) (experiments.MultiGroupPoint, error) {
			return experiments.MultiGroupCoLocation(systems[i%len(systems)], counts[i/len(systems)], ops/4, *seed)
		})
	if err != nil {
		return err
	}
	t := stats.NewTable("groups", "HL-avg", "HL-p99", "Naive-avg", "Naive-p99")
	for ci, n := range counts {
		hl, nv := pts[ci*len(systems)], pts[ci*len(systems)+1]
		t.AddRow(fmt.Sprint(n), us(hl.Probe.Mean), us(hl.Probe.P99), us(nv.Probe.Mean), us(nv.Probe.P99))
	}
	printTable(t)
	return nil
}

func ablations(ops int) error {
	fmt.Println("=== Ablations (DESIGN.md §5) ===")
	vol, dur, err := experiments.AblationFlush(1024, ops, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("gFLUSH interleave:    volatile avg %s -> durable avg %s (+%.0f%%)\n",
		us(vol.Mean), us(dur.Mean), 100*(float64(dur.Mean)/float64(vol.Mean)-1))

	nic, cpu, err := experiments.AblationForwarding(1024, ops, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("forwarding (idle):    NIC avg %s vs CPU avg %s (%.1fx)\n",
		us(nic.Mean), us(cpu.Mean), float64(cpu.Mean)/float64(nic.Mean))

	pts, err := experiments.AblationReplenishBatch(
		[]sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond, 1000 * sim.Microsecond}, 4000, *seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("replenish every %-7v -> replica CPU %5.1f%%core, avg latency %s\n",
			p.Period, p.CPUCorePct, us(p.MeanLatency))
	}

	with, without, err := experiments.AblationWakeupBonus(1024, ops/2, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("scheduler model:      CFS-wakeup avg %s vs pure-FIFO avg %s\n",
		us(with.Mean), us(without.Mean))
	return nil
}

// stages renders the durable-gWRITE latency decomposition (mean per-op
// stage durations; the stages tile the end-to-end window exactly).
func stages(ops int) error {
	fmt.Println("=== Stage breakdown: durable gWRITE, group=3, 10:1 co-location ===")
	printTable(experiments.StageBreakdownTable(experiments.StageBreakdown(*seed, ops/4)))
	return nil
}

// lockstages renders the contended-lock-acquisition decomposition: the
// NIC-resident gATOMIC_LOOP program vs the host-bounced retry loop.
func lockstages(ops int) error {
	fmt.Println("=== Lock stage breakdown: contended WrLock, group=3, 40us foreign hold ===")
	printTable(experiments.LockStageTable(experiments.LockStageBreakdown(ops / 100)))
	return nil
}

// dumpMetrics runs the instrumented collection pass and writes the merged
// registry dump.
func dumpMetrics(path string) error {
	reg, err := experiments.MicroMetrics(*seed, 2000)
	if err != nil {
		return err
	}
	data, err := reg.ExportJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote metrics dump to %s\n", path)
	return nil
}

// printTable renders a result table as text or CSV per the -csv flag.
func printTable(t *stats.Table) {
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}
