package experiments

import (
	"flag"
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/load"
	"hyperloop/internal/qos"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

// Tenant-isolation experiment: the elastic QoS plane end to end. A victim
// tenant runs at a steady rate while an aggressor bursts to ten times its
// contract over a tiered host fleet. Three seeded runs:
//
//   baseline     — aggressor at its contract, QoS on: the quiescent
//                  reference for the victim's tail.
//   QoS on       — the 10x burst. The controller throttles the aggressor
//                  to its contract, detects sustained saturation, funds
//                  scale-out steps from the tenant's escrow (each one a
//                  live migration of a spare shard onto edge-tier hosts
//                  plus a FundFrac rate raise), and halts at the spend
//                  cap — degrading back to pure throttling.
//   uncontrolled — the same burst with admission off: the hidden-queue
//                  counterfactual that shows what the victim was spared.
//
// The verdicts are the paper-style isolation story: victim p99 flat within
// 10% of baseline through the burst, aggressor recovered past 1.5x its
// contract via funded edge capacity, spend stopped exactly at the cap, and
// the uncontrolled run inflating the victim's tail by 10x or more.

// TenantIsolationParams selects one scenario.
type TenantIsolationParams struct {
	Seed int64
	// Workers is the engine worker count inside each run.
	Workers int
	// Duration is the arrival horizon per run (default 20ms — long enough
	// that the funded plateau dominates the aggressor's average).
	Duration sim.Duration
}

// Scenario constants. Rates are per group; the plane runs two groups.
const (
	isoVictimRate = 30_000.0 // victim arrivals per group per second
	isoContract   = 30_000.0 // aggressor contract per group per second
	isoBurstMult  = 10       // aggressor burst multiple of contract
	isoHosts      = 10       // hosts per group: 0-6 general, 7-9 edge
	isoShards     = 4        // tenant-owned 0,1; spares 2,3
)

// isoEscrow / isoCap fund exactly two scale-out steps per group; the third
// saturated decision must degrade to throttling.
const (
	isoEscrow   = 2.0
	isoStepCost = 1.0
	isoCap      = 2.0
)

// isoTiers labels the pool: the last three hosts are edge.
func isoTiers() []shard.Tier {
	tiers := make([]shard.Tier, isoHosts)
	for h := isoHosts - 3; h < isoHosts; h++ {
		tiers[h] = shard.TierEdge
	}
	return tiers
}

// isoTierNIC gives edge hosts the fast NIC profile scale-out recruits for.
func isoTierNIC() map[shard.Tier]rdma.Config {
	return map[shard.Tier]rdma.Config{
		shard.TierEdge: {
			WQEProcess:   100 * sim.Nanosecond,
			RxProcess:    100 * sim.Nanosecond,
			DMAGbps:      400,
			DoorbellCost: 100 * sim.Nanosecond,
		},
	}
}

// TenantIsolationVerdict is one scenario's outcome.
type TenantIsolationVerdict struct {
	Params TenantIsolationParams
	// Baseline, QoSOn, Uncontrolled are the three runs (tenant order:
	// victim, aggressor).
	Baseline     load.Result
	QoSOn        load.Result
	Uncontrolled load.Result
	Judged       // Metrics is the QoS run's merged registry (group order)
}

// isoConfig builds one run. aggMult scales the aggressor's offered load as
// a multiple of its contract; the victim's absolute rate is identical in
// every run (the weights split the shared arrival stream).
func isoConfig(p TenantIsolationParams, aggMult int, qosOn bool) load.Config {
	vicW, aggW := 1, int(isoContract/isoVictimRate)*aggMult
	cfg := load.Config{
		System:         "hyperloop",
		Groups:         2,
		ShardsPerGroup: isoShards,
		HostsPerGroup:  isoHosts,
		Replicas:       3,
		FusionDepth:    4,
		DoorbellCost:   200 * sim.Nanosecond,
		Workers:        p.Workers,
		Seed:           p.Seed,
		OfferedLoad:    2 * (isoVictimRate + isoContract*float64(aggMult)),
		Duration:       p.Duration,
		SLO:            curveSLO,
		Tenants: []load.TenantClass{
			// The victim is unthrottled (rate 0): only isolation protects
			// it. Its SLO target makes breaches observable in the log.
			{Name: "victim", Weight: vicW,
				SLO: qos.SLO{P99Target: curveSLO}},
			{Name: "aggressor", Weight: aggW, RatePerSec: isoContract,
				SLO: qos.SLO{
					Budget: qos.Budget{Escrow: isoEscrow, StepCost: isoStepCost, SpendCap: isoCap},
					Hint:   shard.HintHot,
				}},
		},
		Admission: load.AdmissionConfig{
			QueueDepth:      64,
			MaxInflight:     32,
			DispatchBatch:   8,
			DispatchEvery:   2 * sim.Microsecond,
			PerTenantQueues: true,
		},
		HostTiers: isoTiers(),
		TierNIC:   isoTierNIC(),
		QoS:       qosOn,
	}
	cfg.Admission.Enabled = qosOn
	if !qosOn {
		// The counterfactual is the legacy hidden queue: no buckets, no
		// bounded FIFO, no per-tenant fairness.
		cfg.Admission.PerTenantQueues = false
	}
	return cfg
}

// tenantIsolationAt runs the isolation scenario at seed with the default
// horizon — the QoS-on arm of `hl chaos`'s tenant-burst gate.
func tenantIsolationAt(seed int64) TenantIsolationVerdict {
	return RunTenantIsolation(TenantIsolationParams{Seed: seed})
}

// RunTenantIsolation runs and judges one tenant-isolation scenario.
func RunTenantIsolation(p TenantIsolationParams) TenantIsolationVerdict {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Duration <= 0 {
		p.Duration = 20 * sim.Millisecond
	}
	v := TenantIsolationVerdict{Params: p}

	v.Baseline = load.Run(isoConfig(p, 1, true))
	v.QoSOn = load.Run(isoConfig(p, isoBurstMult, true))
	v.Uncontrolled = load.Run(isoConfig(p, isoBurstMult, false))
	v.Metrics = v.QoSOn.MergedRegistry()

	for _, r := range []struct {
		name string
		res  load.Result
	}{{"baseline", v.Baseline}, {"qos-on", v.QoSOn}, {"uncontrolled", v.Uncontrolled}} {
		c := check.Result{Name: "accounting-" + r.name}
		switch {
		case r.res.CheckAccounting() != nil:
			c.Err = r.res.CheckAccounting()
		case !r.res.Skew.Pass():
			c.Err = r.res.Skew.Err
		default:
			c.Detail = fmt.Sprintf("%d arrivals, no hidden holes", r.res.Verdicts.Arrivals)
		}
		v.Checks = append(v.Checks, c)
	}

	// (a) The victim's p99 stays within 10% of baseline through the burst.
	vicBase, vicQoS := tenant(v.Baseline, "victim"), tenant(v.QoSOn, "victim")
	flat := check.Result{Name: "victim-flat-10pct"}
	bound := vicBase.P99 + vicBase.P99/10
	switch {
	case vicQoS.Acked == 0:
		flat.Err = fmt.Errorf("victim starved: 0 acked during burst")
	case vicQoS.P99 > bound:
		flat.Err = fmt.Errorf("victim p99 %v during burst, baseline %v (10%% bound %v)",
			vicQoS.P99, vicBase.P99, bound)
	default:
		flat.Detail = fmt.Sprintf("p99 %v burst vs %v baseline", vicQoS.P99, vicBase.P99)
	}
	v.Checks = append(v.Checks, flat)

	// (b) The aggressor is throttled against its contract, then recovers to
	// at least 1.5x contract goodput on funded capacity.
	agg := tenant(v.QoSOn, "aggressor")
	contractTotal := 2 * isoContract // both groups
	ackedRate := float64(agg.Acked) / p.Duration.Seconds()
	recover := check.Result{Name: "aggressor-recovers-1.5x"}
	switch {
	case agg.Throttled == 0:
		recover.Err = fmt.Errorf("aggressor burst (%d arrivals) never throttled", agg.Arrivals)
	case float64(agg.Throttled) < 0.5*float64(agg.Arrivals):
		recover.Err = fmt.Errorf("aggressor throttled only %d of %d arrivals", agg.Throttled, agg.Arrivals)
	case ackedRate < 1.5*contractTotal:
		recover.Err = fmt.Errorf("aggressor acked %.0f/s, want >= 1.5x contract %.0f/s",
			ackedRate, contractTotal)
	case ackedRate > 2.5*contractTotal:
		recover.Err = fmt.Errorf("aggressor acked %.0f/s: above any funded rate (cap 2x contract)", ackedRate)
	default:
		recover.Detail = fmt.Sprintf("throttled %d/%d, acked %.0f/s (%.1fx contract)",
			agg.Throttled, agg.Arrivals, ackedRate, ackedRate/contractTotal)
	}
	v.Checks = append(v.Checks, recover)

	// (b') The funded steps landed the spares on edge-tier hosts, and the
	// victim's shard never touched edge.
	tiers := isoTiers()
	edge := check.Result{Name: "scale-out-on-edge"}
	edgeErr := func() error {
		if len(v.QoSOn.Placements) != 2 {
			return fmt.Errorf("placements for %d groups, want 2", len(v.QoSOn.Placements))
		}
		for g, pl := range v.QoSOn.Placements {
			for _, h := range pl[0] {
				if tiers[h] == shard.TierEdge {
					return fmt.Errorf("group %d: victim shard on edge host %d: %v", g, h, pl[0])
				}
			}
			for _, sid := range []int{2, 3} { // the recruited spares
				edgeHosts := 0
				for _, h := range pl[sid] {
					if tiers[h] == shard.TierEdge {
						edgeHosts++
					}
				}
				if edgeHosts < 2 {
					return fmt.Errorf("group %d: spare shard %d on %v: %d edge hosts, want 2",
						g, sid, pl[sid], edgeHosts)
				}
			}
		}
		return nil
	}()
	if edgeErr != nil {
		edge.Err = edgeErr
	} else {
		edge.Detail = "both spares per group recruited onto 2-of-3 edge chains; victim stayed off edge"
	}
	v.Checks = append(v.Checks, edge)

	// (c) Spend halts exactly at the per-group cap: 2 steps per group, the
	// escrow drained, and one cap-exhausted degrade per group.
	ledger := check.Result{Name: "budget-cap-halts"}
	aggLedger := v.aggressorLedger()
	capEvents := 0
	for _, e := range v.QoSOn.QoSEvents {
		if e.Name == "aggressor" && e.Kind == qos.CapExhausted {
			capEvents++
		}
	}
	switch {
	case aggLedger.Steps != 4:
		ledger.Err = fmt.Errorf("aggressor scale-out steps = %d, want 4 (2 per group)", aggLedger.Steps)
	case aggLedger.Spent != 2*isoCap || aggLedger.EscrowLeft != 0:
		ledger.Err = fmt.Errorf("spent/escrow = %.1f/%.1f, want %.1f/0",
			aggLedger.Spent, aggLedger.EscrowLeft, 2*isoCap)
	case !aggLedger.Degraded:
		ledger.Err = fmt.Errorf("aggressor not degraded to throttling at the cap")
	case capEvents != 2:
		ledger.Err = fmt.Errorf("cap-exhausted logged %d times, want once per group", capEvents)
	default:
		ledger.Detail = fmt.Sprintf("4 funded steps, spent %.0f of cap %.0f, degraded",
			aggLedger.Spent, 2*isoCap)
	}
	v.Checks = append(v.Checks, ledger)

	// (d) The uncontrolled counterfactual inflates the victim's tail 10x+.
	vicOff := tenant(v.Uncontrolled, "victim")
	degrade := check.Result{Name: "uncontrolled-10x-victim-p99"}
	if vicOff.P99 < 10*vicQoS.P99 {
		degrade.Err = fmt.Errorf("uncontrolled victim p99 %v < 10x controlled %v", vicOff.P99, vicQoS.P99)
	} else {
		degrade.Detail = fmt.Sprintf("victim p99 %v uncontrolled vs %v with QoS (%.0fx)",
			vicOff.P99, vicQoS.P99, float64(vicOff.P99)/float64(vicQoS.P99))
	}
	v.Checks = append(v.Checks, degrade)
	return v
}

// aggressorLedger is the aggressor's controller ledger merged across groups.
func (v TenantIsolationVerdict) aggressorLedger() qos.TenantState {
	for _, st := range v.QoSOn.QoSTenants {
		if st.Name == "aggressor" {
			return st
		}
	}
	return qos.TenantState{}
}

func (v TenantIsolationVerdict) row() []string {
	agg, ledger := tenant(v.QoSOn, "aggressor"), v.aggressorLedger()
	return []string{fmt.Sprint(v.Params.Seed),
		victimP99s(v.Baseline, v.QoSOn, v.Uncontrolled),
		fmt.Sprintf("%d/%d", agg.Acked, agg.Arrivals),
		fmt.Sprintf("%d/%.0f", ledger.Steps, ledger.Spent), v.Checks.Summary()}
}

func (v TenantIsolationVerdict) detail(e *Env) {
	printDetail[string](e, fmt.Sprintf("tenant-isolation seed=%d", v.Params.Seed), nil, v.Checks)
	printQoSLog(e, v.QoSOn.QoSEvents)
}

// printQoSLog prints every controller decision, one per line.
func printQoSLog(e *Env, evs []qos.Event) {
	for _, ev := range evs {
		e.Printf("    %v %s %v: %s\n", ev.At, ev.Name, ev.Kind, ev.Detail)
	}
}

// printQoSEvents prints the decision log: a count per kind, plus every entry
// under -v (the funding story is short enough to read whole).
func printQoSEvents(e *Env, evs []qos.Event) {
	if len(evs) == 0 {
		return
	}
	counts := map[qos.EventKind]int{}
	var order []qos.EventKind
	for _, ev := range evs {
		if counts[ev.Kind] == 0 {
			order = append(order, ev.Kind)
		}
		counts[ev.Kind]++
	}
	e.Printf("decisions:")
	for _, k := range order {
		e.Printf(" %v=%d", k, counts[k])
	}
	e.Println()
	if e.Verbose {
		printQoSLog(e, evs)
	}
}

// durationFlag registers the arrival-horizon override the QoS scenarios
// share; horizon reads it back.
func durationFlag(fs *flag.FlagSet) {
	fs.Int("duration-ms", 0, "arrival horizon per run in virtual milliseconds (0 = scenario default)")
}

func horizon(e *Env) sim.Duration { return sim.Duration(e.Int("duration-ms")) * sim.Millisecond }

// qosScenario runs and reports the headline tenant-isolation scenario: the
// checks table is the verdict, then the per-tenant outcomes, the controller
// ledgers and the decision log.
func qosScenario(e *Env) error {
	v := RunTenantIsolation(TenantIsolationParams{
		Seed: e.Seed, Workers: e.EngineWorkers, Duration: horizon(e),
	})
	e.Merge(v.Metrics)
	e.Printf("=== Tenant isolation: %dx burst over tiered hosts, seed %d, %v horizon ===\n",
		isoBurstMult, e.Seed, v.QoSOn.Elapsed)
	e.Checks(v.Checks)

	e.Println("--- per-tenant (QoS on, 10x burst) ---")
	e.Table(TenantTable(v.QoSOn, 0))

	lt := stats.NewTable("tenant", "steps", "spent", "escrow-left", "funded-rate", "degraded")
	for _, st := range v.QoSOn.QoSTenants {
		lt.AddRow(st.Name, fmt.Sprint(st.Steps), fmt.Sprintf("%.1f", st.Spent),
			fmt.Sprintf("%.1f", st.EscrowLeft), fmt.Sprintf("%.0f/s", st.FundedRate),
			fmt.Sprint(st.Degraded))
	}
	e.Println("--- controller ledgers (merged across groups) ---")
	e.Table(lt)

	printQoSEvents(e, v.QoSOn.QoSEvents)
	printSummary(e, "checks")
	return nil
}
