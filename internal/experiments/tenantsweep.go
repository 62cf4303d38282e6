package experiments

import (
	"flag"
	"fmt"

	"hyperloop/internal/load"
	"hyperloop/internal/metrics"
	"hyperloop/internal/qos"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

// Tenant sweep: one QoS-on serving-plane run over an arbitrary tenant-class
// count, the multi-tenant scaling axis the isolation scenario holds fixed at
// two. Every class gets the same weight and contract, so the sweep measures
// the plane's behavior under cardinality, not skew: past metrics.MaxLabels
// the collapsed classes keep exact admission accounting (the per-class
// counters live outside the registry) while the controller — which reads
// through the registry — flags their windows Overflow and refuses to spend
// on them (one OverflowSkipped decision per collapsed class per group).

// TenantSweepParams sizes one sweep run.
type TenantSweepParams struct {
	Seed    int64
	Workers int
	// Tenants is the class count (default 8). Values past metrics.MaxLabels
	// exercise the label-cardinality collapse.
	Tenants int
	// Duration is the arrival horizon (default 10ms).
	Duration sim.Duration
}

// TenantSweepResult is one sweep outcome.
type TenantSweepResult struct {
	Params TenantSweepParams
	Run    load.Result
	// Distinct classes kept their own metric series; Overflowed collapsed
	// into the shared overflow label.
	Distinct   int
	Overflowed int
	// Skipped counts classes the controller refused to decide for because
	// their series collapsed (it must equal Overflowed: conservatism is
	// total, not probabilistic).
	Skipped int
}

// sweepConfig builds the run: the isolation scenario's tiered two-group
// plane, with the offered load and contract split evenly across n classes.
func sweepConfig(p TenantSweepParams) load.Config {
	classes := make([]load.TenantClass, p.Tenants)
	perClass := 200_000.0 / float64(p.Tenants) // arrivals/s across groups
	for i := range classes {
		classes[i] = load.TenantClass{
			Name:       sweepName(i),
			Weight:     1,
			RatePerSec: perClass / 4, // per-group contract: half the class's per-group share
			SLO: qos.SLO{
				Budget: qos.Budget{Escrow: 1, StepCost: 1, SpendCap: 1},
			},
		}
	}
	return load.Config{
		System:         "hyperloop",
		Groups:         2,
		ShardsPerGroup: isoShards,
		HostsPerGroup:  isoHosts,
		Replicas:       3,
		FusionDepth:    4,
		DoorbellCost:   200 * sim.Nanosecond,
		Workers:        p.Workers,
		Seed:           p.Seed,
		OfferedLoad:    200_000,
		Duration:       p.Duration,
		SLO:            curveSLO,
		Tenants:        classes,
		Admission: load.AdmissionConfig{
			Enabled:         true,
			QueueDepth:      64,
			MaxInflight:     32,
			DispatchBatch:   8,
			DispatchEvery:   2 * sim.Microsecond,
			PerTenantQueues: true,
		},
		HostTiers: isoTiers(),
		TierNIC:   isoTierNIC(),
		QoS:       true,
	}
}

func sweepName(i int) string {
	// Fixed-width names keep table output aligned at any count.
	const digits = "0123456789"
	b := []byte{'t', '0', '0', '0', '0'}
	for j := 4; j >= 1 && i > 0; j-- {
		b[j] = digits[i%10]
		i /= 10
	}
	return string(b)
}

// TenantTable renders a run's per-class outcomes — admitted, shed (throttled
// plus queue-full), p99, leftover burst credits — capped at maxRows classes
// (0 = all) with an aggregate tail row.
func TenantTable(r load.Result, maxRows int) *stats.Table {
	t := stats.NewTable("tenant", "arrivals", "admitted", "shed", "acked", "p99", "credits")
	shown := len(r.Tenants)
	if maxRows > 0 && shown > maxRows {
		shown = maxRows
	}
	var arrivals, admitted, acked uint64
	for i, ts := range r.Tenants {
		arrivals += ts.Arrivals
		admitted += ts.Admitted
		acked += ts.Acked
		if i < shown {
			t.AddRow(ts.Name, fmt.Sprint(ts.Arrivals), fmt.Sprint(ts.Admitted),
				fmt.Sprint(ts.Arrivals-ts.Admitted), fmt.Sprint(ts.Acked),
				fmt.Sprint(ts.P99), fmt.Sprintf("%.1f", ts.Credits))
		}
	}
	if hidden := len(r.Tenants) - shown; hidden > 0 {
		t.AddRow(fmt.Sprintf("...(%d more)", hidden), "", "", "", "", "", "")
	}
	t.AddRow(fmt.Sprintf("TOTAL(%d)", len(r.Tenants)), fmt.Sprint(arrivals),
		fmt.Sprint(admitted), fmt.Sprint(arrivals-admitted), fmt.Sprint(acked),
		fmt.Sprint(r.Lat.P99), "")
	return t
}

// RunTenantSweep runs one sweep cell and tallies the cardinality outcome.
func RunTenantSweep(p TenantSweepParams) TenantSweepResult {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Tenants <= 0 {
		p.Tenants = 8
	}
	if p.Duration <= 0 {
		p.Duration = 10 * sim.Millisecond
	}
	r := TenantSweepResult{Params: p, Run: load.Run(sweepConfig(p))}
	skipped := map[string]bool{}
	for _, e := range r.Run.QoSEvents {
		if e.Kind == qos.OverflowSkipped {
			skipped[e.Name] = true
		}
	}
	r.Skipped = len(skipped)
	r.Overflowed = p.Tenants - metrics.MaxLabels
	if r.Overflowed < 0 {
		r.Overflowed = 0
	}
	r.Distinct = p.Tenants - r.Overflowed
	return r
}

func tenantsFlags(fs *flag.FlagSet) {
	fs.Int("tenants", 8, "tenant classes sharing the plane")
	durationFlag(fs)
}

// tenantsScenario runs and reports the tenant-cardinality sweep: N equal
// classes with QoS on. Past metrics.MaxLabels the label space collapses;
// admission accounting must stay exact and the controller must refuse to
// spend on every collapsed class.
func tenantsScenario(e *Env) error {
	r := RunTenantSweep(TenantSweepParams{
		Seed: e.Seed, Workers: e.EngineWorkers, Tenants: e.Int("tenants"), Duration: horizon(e),
	})
	if e.Metrics != nil {
		e.Merge(r.Run.MergedRegistry())
	}
	e.Printf("=== Tenant sweep: %d classes, seed %d, %v horizon ===\n",
		r.Params.Tenants, e.Seed, r.Run.Elapsed)
	e.Table(TenantTable(r.Run, 16))
	e.Printf("label cardinality: %d distinct, %d collapsed, %d controller-skipped\n",
		r.Distinct, r.Overflowed, r.Skipped)
	printQoSEvents(e, r.Run.QoSEvents)

	if err := r.Run.CheckAccounting(); err != nil {
		e.Printf("accounting FAILED: %v\n", err)
		e.failed++
	}
	if r.Skipped != r.Overflowed {
		e.Printf("conservatism FAILED: %d skipped vs %d collapsed\n", r.Skipped, r.Overflowed)
		e.failed++
	}
	if e.failed == 0 {
		e.Println("accounting exact, controller conservative on every collapsed class")
	}
	return nil
}
