package experiments

import (
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/faults"
	"hyperloop/internal/load"
	"hyperloop/internal/sim"
)

// Tenant-burst chaos on the open-loop serving plane: an aggressor tenant
// bursts to BurstMult times the victim's steady rate while the victim's
// arrivals stay constant. Three runs per scenario — a calm baseline, the
// burst with the admission controller on, and the same burst with it off —
// judged by three invariants: the controller must throttle the aggressor
// (counted, never silently dropped), the victim's p99 must stay flat
// across the burst, and the uncontrolled run must demonstrably degrade the
// victim (otherwise the scenario proves nothing).

// AdmissionBurstParams selects one tenant-burst scenario.
type AdmissionBurstParams struct {
	Seed int64
	// Workers is the engine worker count inside each run.
	Workers int
}

// burstVictimRate is the victim's steady offered load, well inside the
// plane's capacity so only interference can move its tail.
const burstVictimRate = 60_000.0

// burstDuration is the arrival horizon of each run.
const burstDuration = 2 * sim.Millisecond

// AdmissionBurstVerdict is one scenario's outcome.
type AdmissionBurstVerdict struct {
	Params AdmissionBurstParams
	Spec   faults.AdmissionBurstSpec
	// Baseline, Burst, Uncontrolled are the victim/aggressor outcomes of
	// the three runs (tenant order: victim, aggressor).
	Baseline     load.Result
	Burst        load.Result
	Uncontrolled load.Result
	Judged       // Metrics is the burst run's merged registry (group order)
}

// tenant returns the named tenant's merged stats from a run.
func tenant(r load.Result, name string) load.TenantStat {
	for _, t := range r.Tenants {
		if t.Name == name {
			return t
		}
	}
	return load.TenantStat{}
}

// burstConfig builds one run of the scenario. The victim's absolute arrival
// rate is held at burstVictimRate in every run; the victim/aggressor weights
// split the client population, so the total offered load is scaled to keep
// the victim's share constant while the aggressor's varies.
func burstConfig(p AdmissionBurstParams, spec faults.AdmissionBurstSpec, vicW, aggW int, admissionOn, withMetrics bool) load.Config {
	cfg := load.Config{
		System:         "hyperloop",
		Groups:         2,
		ShardsPerGroup: 1,
		HostsPerGroup:  3,
		Replicas:       3,
		RegionSize:     1 << 18,
		FusionDepth:    4,
		DoorbellCost:   200 * sim.Nanosecond,
		Workers:        p.Workers,
		Seed:           p.Seed,
		OfferedLoad:    burstVictimRate * float64(vicW+aggW) / float64(vicW),
		Duration:       burstDuration,
		SLO:            curveSLO,
		Tenants: []load.TenantClass{
			{Name: "victim", Weight: vicW},
			{Name: "aggressor", Weight: aggW,
				RatePerSec: spec.AggressorRate, Burst: spec.AggressorBurst},
		},
		Admission: curveAdmission,
		Metrics:   withMetrics,
	}
	cfg.Admission.Enabled = admissionOn
	return cfg
}

// RunAdmissionBurst plans and judges one tenant-burst scenario.
func RunAdmissionBurst(p AdmissionBurstParams) AdmissionBurstVerdict {
	spec := faults.PlanAdmissionBurst(p.Seed)
	v := AdmissionBurstVerdict{Params: p, Spec: spec}

	// Baseline: aggressor at 1/3 the victim's rate — inside its per-group
	// bucket, so the controller is quiescent. Burst: aggressor at BurstMult
	// x the victim, controller on. Uncontrolled: the same burst, controller
	// off.
	v.Baseline = load.Run(burstConfig(p, spec, 3, 1, true, false))
	v.Burst = load.Run(burstConfig(p, spec, 1, spec.BurstMult, true, true))
	v.Uncontrolled = load.Run(burstConfig(p, spec, 1, spec.BurstMult, false, false))
	v.Metrics = v.Burst.MergedRegistry()

	for _, r := range []struct {
		name string
		res  load.Result
	}{{"baseline", v.Baseline}, {"burst", v.Burst}, {"uncontrolled", v.Uncontrolled}} {
		c := check.Result{Name: "accounting-" + r.name}
		if err := r.res.CheckAccounting(); err != nil {
			c.Err = err
		} else {
			c.Detail = fmt.Sprintf("%d arrivals, no hidden holes", r.res.Verdicts.Arrivals)
		}
		v.Checks = append(v.Checks, c)
	}

	// The aggressor's burst must be throttled against its bucket: most of
	// its offered load gets a counted shed-throttled verdict, and what it
	// does get admitted stays within ~its contract plus queue-full sheds.
	agg := tenant(v.Burst, "aggressor")
	throttle := check.Result{Name: "aggressor-throttled"}
	contract := spec.AggressorRate*2*burstDuration.Seconds() + 2*spec.AggressorBurst // 2 groups
	switch {
	case agg.Arrivals == 0:
		throttle.Err = fmt.Errorf("aggressor never arrived")
	case agg.Throttled == 0:
		throttle.Err = fmt.Errorf("aggressor burst (%d arrivals) never throttled", agg.Arrivals)
	case float64(agg.Admitted) > 1.5*contract:
		throttle.Err = fmt.Errorf("aggressor admitted %d, contract ~%.0f", agg.Admitted, contract)
	default:
		throttle.Detail = fmt.Sprintf("%d/%d throttled, %d admitted (contract ~%.0f)",
			agg.Throttled, agg.Arrivals, agg.Admitted, contract)
	}
	v.Checks = append(v.Checks, throttle)

	// The victim's tail must stay flat through the burst: p99 within 2x of
	// baseline plus a small absolute allowance for batch-dispatch jitter.
	vicBase, vicBurst := tenant(v.Baseline, "victim"), tenant(v.Burst, "victim")
	flat := check.Result{Name: "victim-flat"}
	bound := 2*vicBase.P99 + 50*sim.Microsecond
	switch {
	case vicBurst.Acked == 0:
		flat.Err = fmt.Errorf("victim starved: 0 acked during burst")
	case vicBurst.P99 > bound:
		flat.Err = fmt.Errorf("victim p99 %v during burst, baseline %v (bound %v)",
			vicBurst.P99, vicBase.P99, bound)
	default:
		flat.Detail = fmt.Sprintf("p99 %v burst vs %v baseline", vicBurst.P99, vicBase.P99)
	}
	v.Checks = append(v.Checks, flat)

	// Counterfactual: without the controller the same burst must hurt the
	// victim — otherwise the scenario isn't exercising anything.
	vicOff := tenant(v.Uncontrolled, "victim")
	degrade := check.Result{Name: "uncontrolled-degrades"}
	if vicOff.P99 < 3*vicBurst.P99 {
		degrade.Err = fmt.Errorf("uncontrolled victim p99 %v not >> controlled %v",
			vicOff.P99, vicBurst.P99)
	} else {
		degrade.Detail = fmt.Sprintf("victim p99 %v uncontrolled vs %v controlled",
			vicOff.P99, vicBurst.P99)
	}
	v.Checks = append(v.Checks, degrade)
	return v
}

// admissionBurstAt runs the tenant-burst scenario planned for seed.
func admissionBurstAt(seed int64) AdmissionBurstVerdict {
	return RunAdmissionBurst(AdmissionBurstParams{Seed: seed})
}

func (v AdmissionBurstVerdict) row() []string {
	agg := tenant(v.Burst, "aggressor")
	return []string{fmt.Sprint(v.Params.Seed), fmt.Sprintf("%dx", v.Spec.BurstMult),
		fmt.Sprintf("%.0f/s+%.0f", v.Spec.AggressorRate, v.Spec.AggressorBurst),
		fmt.Sprintf("%d/%d", agg.Throttled, agg.Arrivals),
		victimP99s(v.Baseline, v.Burst, v.Uncontrolled), v.Checks.Summary()}
}

func (v AdmissionBurstVerdict) detail(e *Env) {
	printDetail[string](e, v.Spec, nil, v.Checks)
}

// victimP99s is the "base / burst / off" cell of the tenant-burst tables:
// the victim's p99 in the calm, controlled and uncontrolled runs.
func victimP99s(base, burst, off load.Result) string {
	return fmt.Sprintf("%v / %v / %v", tenant(base, "victim").P99,
		tenant(burst, "victim").P99, tenant(off, "victim").P99)
}
