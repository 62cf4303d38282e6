// Command hlshard exercises the sharded multi-group data plane: the
// shard-count scaling curve (aggregate gWRITE throughput and per-shard p99
// on a fixed 16-host pool) and the migration-inflight chaos matrix (live
// gMEMCPY shard migration with a source or destination replica killed
// mid-copy, judged by the sharded invariant checkers). The same -seed
// always produces byte-identical output at any -parallel setting; the exit
// status is 1 if any chaos scenario fails a check.
//
// Usage:
//
//	hlshard [-exp all|scaling|pscaling|migrate] [-quick] [-seed N] [-seeds N] [-parallel N]
//	        [-engine-workers N] [-csv] [-metrics-json FILE]
//	        [-cpuprofile FILE] [-memprofile FILE]
//
// -exp pscaling runs the partitioned-engine scaling cell: the 16-shard
// workload on a sim.PartitionedEngine with -engine-workers workers;
// results and metrics dumps are byte-identical at every worker count.
//
// -metrics-json re-runs the selected scaling experiment with the
// observability plane attached (registries merged in deterministic order —
// bit-identical at any -parallel or -engine-workers setting) and dumps the
// merged registry as JSON.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hyperloop/internal/experiments"
	"hyperloop/internal/metrics"
	"hyperloop/internal/prof"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

var (
	expFlag    = flag.String("exp", "all", "experiment: all, scaling, pscaling, migrate")
	quick      = flag.Bool("quick", false, "reduced op counts for a fast run")
	csv        = flag.Bool("csv", false, "emit tables as CSV")
	seed       = flag.Int64("seed", 1, "simulation seed")
	seeds      = flag.Int("seeds", 4, "migration-inflight scenarios to run")
	parallel   = flag.Int("parallel", 0, "worker count (0 = all cores, 1 = serial)")
	engWorkers = flag.Int("engine-workers", 0, "partitioned-engine worker count (0 = all cores, 1 = serial)")
	metJSON    = flag.String("metrics-json", "", "run the instrumented scaling experiment and dump the merged metrics registry as JSON to this file")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	ok := true
	switch *expFlag {
	case "scaling":
		scaling()
	case "pscaling":
		pscaling()
	case "migrate":
		ok = migrate()
	case "all":
		scaling()
		pscaling()
		ok = migrate()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}

	if !ok {
		stopProfAndExit(1)
	}
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fus", float64(d)/1000) }

// dumpMetrics runs the selected scaling experiment with registries attached
// and writes the merged dump. For -exp pscaling the dump is the per-group
// registries of one 16-shard partitioned cell merged in group order — the
// byte-for-byte artifact the CI determinism gate compares across
// -engine-workers settings.
func dumpMetrics(path string) error {
	ops := 400
	if *quick {
		ops = 150
	}
	merged := metrics.NewRegistry()
	if *expFlag == "pscaling" {
		r := experiments.RunPartitionedScaling(experiments.PartitionedScalingParams{
			Shards: 16, Workers: *engWorkers, Seed: *seed, OpsPerShard: ops, Metrics: true,
		})
		if !r.Skew.Pass() {
			return fmt.Errorf("skew check: %w", r.Skew.Err)
		}
		merged = r.MergedRegistry()
	} else {
		counts := experiments.ShardScalingCounts
		res, err := experiments.RunParallel(experiments.Parallelism(), len(counts),
			func(i int) (experiments.ShardScalingResult, error) {
				return experiments.RunShardScaling(experiments.ShardScalingParams{
					Shards: counts[i], Seed: *seed, OpsPerShard: ops, Metrics: true,
				}), nil
			})
		if err != nil {
			return err
		}
		for _, r := range res {
			merged.Merge(r.Reg)
		}
	}
	data, err := merged.ExportJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote metrics dump to %s\n", path)
	return nil
}

// scaling prints the shard-count scaling curve on the fixed host pool.
func scaling() {
	ops := 400
	if *quick {
		ops = 150
	}
	fmt.Printf("=== Shard scaling: aggregate gWRITE throughput, 16-host pool, %d ops/shard ===\n", ops)
	res := experiments.ShardScaling(nil, *seed, ops)
	t := stats.NewTable("shards", "acked", "elapsed", "kops/s", "avg", "p99", "max-shard-p99")
	for _, r := range res {
		t.AddRow(fmt.Sprint(r.Shards), fmt.Sprint(r.Acked), fmt.Sprint(r.Elapsed),
			fmt.Sprintf("%.1f", r.TputKops), us(r.Lat.Mean), us(r.Lat.P99), us(r.MaxShardP99))
	}
	printTable(t)
}

// pscaling runs the 16-shard partitioned-engine cell across worker counts.
// Simulated results must be byte-identical at every count (the process panics
// if they diverge); only the wall clock may change, and the wall-clock column
// plus the recorded speedup are the multi-core payoff measurement.
func pscaling() {
	ops := 400
	if *quick {
		ops = 150
	}
	workerCounts := []int{1, 2, 4, 8}
	if *engWorkers > 0 {
		workerCounts = []int{1, *engWorkers}
	}
	fmt.Printf("=== Partitioned scaling: 16 shards / 4 groups, %d ops/shard, lookahead = inter-group min latency ===\n", ops)
	t := stats.NewTable("workers", "acked", "cross", "elapsed", "kops/s", "avg", "p99", "wall-ms", "vs-w1")
	var refSum string
	var refWall float64
	for _, w := range workerCounts {
		wall := time.Now()
		r := experiments.RunPartitionedScaling(experiments.PartitionedScalingParams{
			Shards: 16, Workers: w, Seed: *seed, OpsPerShard: ops,
		})
		wallMs := float64(time.Since(wall).Microseconds()) / 1e3
		if !r.Skew.Pass() {
			fmt.Fprintf(os.Stderr, "pscaling: workers=%d: %v\n", w, r.Skew.Err)
			stopProfAndExit(1)
		}
		sum := fmt.Sprintf("acked=%d cross=%d elapsed=%v lat=%v maxShardP99=%v",
			r.Acked, r.CrossAcked, r.Elapsed, r.Lat, r.MaxShardP99)
		speedup := 1.0
		if w == workerCounts[0] {
			refSum, refWall = sum, wallMs
		} else {
			if sum != refSum {
				fmt.Fprintf(os.Stderr, "pscaling: workers=%d diverged from serial:\n  w1: %s\n  w%d: %s\n",
					w, refSum, w, sum)
				stopProfAndExit(1)
			}
			speedup = refWall / wallMs
		}
		t.AddRow(fmt.Sprint(w), fmt.Sprint(r.Acked), fmt.Sprint(r.CrossAcked),
			fmt.Sprint(r.Elapsed), fmt.Sprintf("%.1f", r.TputKops),
			us(r.Lat.Mean), us(r.Lat.P99),
			fmt.Sprintf("%.1f", wallMs), fmt.Sprintf("%.2fx", speedup))
	}
	printTable(t)
	fmt.Printf("simulated results identical at all worker counts (%d cores available)\n", runtime.NumCPU())
}

// migrate runs the migration-inflight chaos matrix and narrates the first
// scenario's migration timeline in full.
func migrate() bool {
	n := *seeds
	if *quick && n > 2 {
		n = 2
	}
	fmt.Printf("=== Migration-inflight chaos: %d scenarios (base seed %d) ===\n", n, *seed)
	verdicts := experiments.MigrationMatrix(*seed, n)
	t := stats.NewTable("seed", "kill", "migrate@", "fault+", "acked/err", "migrated", "checks", "verdict")
	failed := 0
	for _, v := range verdicts {
		verdict := "PASS"
		if !v.Pass() {
			verdict = "FAIL"
			failed++
		}
		kill := fmt.Sprintf("source[%d]", v.Spec.VictimIdx)
		if v.Spec.KillDest {
			kill = fmt.Sprintf("dest[%d]", v.Spec.VictimIdx)
		}
		t.AddRow(fmt.Sprint(v.Params.Seed), kill, fmt.Sprint(v.Spec.MigrateAt),
			fmt.Sprint(v.Spec.FaultAfter), fmt.Sprintf("%d/%d", v.Acked, v.Errored),
			fmt.Sprint(v.Migrated), v.Checks.Summary(), verdict)
	}
	printTable(t)

	if len(verdicts) > 0 {
		v := verdicts[0]
		fmt.Printf("--- timeline, seed %d (%v) ---\n", v.Params.Seed, v.Spec)
		for _, e := range v.Timeline {
			fmt.Printf("    %10v  %s\n", e.At, e.What)
		}
		for _, e := range v.Faults {
			fmt.Printf("    %v\n", e)
		}
	}

	for _, v := range verdicts {
		if v.Pass() {
			continue
		}
		fmt.Printf("--- FAILED seed %d (%v) ---\n", v.Params.Seed, v.Spec)
		for _, r := range v.Checks {
			fmt.Printf("    %v\n", r)
		}
	}
	if failed > 0 {
		fmt.Printf("%d of %d scenarios FAILED\n", failed, len(verdicts))
		return false
	}
	fmt.Printf("all %d scenarios passed\n", len(verdicts))
	return true
}

func printTable(t *stats.Table) {
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}
