// Command hlload drives the open-loop serving plane through and past
// saturation: a modeled million-client population with Poisson or
// self-similar (b-model) arrivals and connection churn, fed through the
// per-group admission controller into the HyperLoop sharded plane or the
// Naive-RDMA baseline. It first probes each system's saturation point
// (admission on, offered load far beyond capacity), then sweeps offered
// load across multiples of it with admission on and off, and finally sweeps
// the WQE-chain fusion depth at saturation. The same -seed always produces
// byte-identical output at any -parallel or -engine-workers setting.
//
// Usage:
//
//	hlload [-exp all|curve|fusion] [-quick] [-seed N] [-clients N] [-arrival poisson|bmodel]
//	       [-parallel N] [-engine-workers N] [-tenants N] [-csv] [-metrics-json FILE]
//
// The curve table plots goodput (acks within the SLO) and open-loop p99.9
// against offered load; past the knee the admission-on rows hold goodput at
// capacity while the admission-off rows collapse into their hidden queue.
//
// -tenants N swaps the sweeps for one QoS-on run over N equal tenant
// classes and emits the per-tenant admitted/shed/p99/credits table (the
// same cell hlqos -tenants runs, with its cardinality tally).
package main

import (
	"flag"
	"fmt"
	"os"

	"hyperloop/internal/experiments"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

var (
	expFlag    = flag.String("exp", "all", "experiment: all, curve, fusion")
	quick      = flag.Bool("quick", false, "reduced sweep for a fast run")
	csv        = flag.Bool("csv", false, "emit tables as CSV")
	seed       = flag.Int64("seed", 1, "simulation seed")
	clients    = flag.Int("clients", 1<<20, "modeled connection-id space across groups")
	arrival    = flag.String("arrival", "poisson", "arrival process: poisson or bmodel")
	parallel   = flag.Int("parallel", 0, "worker count (0 = all cores, 1 = serial)")
	engWorkers = flag.Int("engine-workers", 0, "partitioned-engine worker count (0 = all cores, 1 = serial)")
	tenants    = flag.Int("tenants", 0, "run one QoS-on cell with this many tenant classes and print the per-tenant table")
	metJSON    = flag.String("metrics-json", "", "run an instrumented collection pass and dump the metrics registry as JSON to this file")
)

func main() {
	flag.Parse()
	experiments.SetParallelism(*parallel)
	if *metJSON != "" {
		data, err := experiments.LoadMetrics(*seed, *engWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*metJSON, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote metrics dump to %s\n", *metJSON)
		return
	}

	if *tenants > 0 {
		r := experiments.RunTenantSweep(experiments.TenantSweepParams{
			Seed: *seed, Workers: *engWorkers, Tenants: *tenants,
		})
		fmt.Printf("=== Tenant sweep: %d classes, QoS on, seed %d, %v horizon ===\n",
			*tenants, *seed, r.Run.Elapsed)
		printTable(experiments.TenantTable(r.Run, 16))
		fmt.Printf("label cardinality: %d distinct, %d collapsed, %d controller-skipped\n",
			r.Distinct, r.Overflowed, r.Skipped)
		if err := r.Run.CheckAccounting(); err != nil {
			fmt.Fprintf(os.Stderr, "accounting: %v\n", err)
			os.Exit(1)
		}
		return
	}

	switch *expFlag {
	case "curve", "fusion", "all":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}

	p := experiments.LoadCurveParams{
		Seed:     *seed,
		Clients:  *clients,
		Arrival:  *arrival,
		Workers:  *engWorkers,
		Parallel: experiments.Parallelism(),
		Quick:    *quick,
	}
	res := experiments.RunLoadCurve(p)

	if *expFlag != "fusion" {
		curve(res)
	}
	if *expFlag != "curve" {
		fusion(res)
	}
}

func us(d sim.Duration) string { return fmt.Sprintf("%.1fus", float64(d)/1000) }

func onoff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// curve prints the goodput/p99.9-vs-offered-load table per system.
func curve(res experiments.LoadCurveResult) {
	fmt.Printf("=== Load curve: %s arrivals, %d modeled clients, SLO-bounded goodput ===\n",
		*arrival, *clients)
	fmt.Print("measured saturation:")
	for _, sys := range []string{"hyperloop", "naive"} {
		if c, ok := res.CapacityKops[sys]; ok {
			fmt.Printf(" %s=%.1fkops", sys, c)
		}
	}
	fmt.Println()

	t := stats.NewTable("system", "admission", "mult", "offered-kops", "tput-kops",
		"goodput-kops", "p50", "p99.9", "shed", "unserved", "conns")
	for _, pt := range res.Points {
		v := pt.Verdicts
		t.AddRow(pt.System, onoff(pt.Admission), fmt.Sprintf("%.2f", pt.Mult),
			fmt.Sprintf("%.1f", pt.Offered/1e3),
			fmt.Sprintf("%.1f", pt.TputKops), fmt.Sprintf("%.1f", pt.GoodputKops),
			us(pt.Lat.P50), us(pt.P999),
			fmt.Sprint(v.ShedQueueFull+v.ShedThrottled), fmt.Sprint(v.Unserved),
			fmt.Sprint(pt.ConnsOpened))
	}
	printTable(t)
}

// fusion prints the WQE-chain fusion-depth sweep at saturation.
func fusion(res experiments.LoadCurveResult) {
	fmt.Println("=== Fusion sweep: HyperLoop at saturation, doorbell cost 200ns ===")
	t := stats.NewTable("depth", "tput-kops", "goodput-kops", "p50", "p99.9",
		"doorbells", "fused-batches", "fused-ops")
	for _, pt := range res.Fusion {
		t.AddRow(fmt.Sprint(pt.Depth), fmt.Sprintf("%.1f", pt.TputKops),
			fmt.Sprintf("%.1f", pt.GoodputKops), us(pt.Lat.P50), us(pt.P999),
			fmt.Sprint(pt.Doorbells), fmt.Sprint(pt.FusedBatches), fmt.Sprint(pt.FusedOps))
	}
	printTable(t)
}

func printTable(t *stats.Table) {
	if *csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}
