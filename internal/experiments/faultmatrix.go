package experiments

import (
	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/faults"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
)

// FaultMatrix: every fault-scenario class from the faults package, run
// against a full replicated-transaction stack (cluster + chain manager +
// WAL + group locks + txn coordinator), with the check package's invariant
// checkers delivering the verdict. Each (class, seed) cell is one
// self-contained deterministic simulation, fanned out over RunParallel like
// every other sweep; results are assembled in input order so the verdict
// table is bit-for-bit reproducible for a given base seed.

// FaultParams selects one cell of the fault matrix.
type FaultParams struct {
	Class faults.Class
	Seed  int64
}

// FaultVerdict is the outcome of one scenario run.
type FaultVerdict struct {
	Params    FaultParams
	Spec      faults.Spec
	Timeline  []faults.Event
	Committed int          // transactions whose commit acked
	Errored   int          // transactions whose commit failed (indeterminate)
	Failovers uint64       // chain failovers observed
	DetectIn  sim.Duration // fault-to-detection delay (0 when no failover)
	Checks    check.Report
	// Metrics is the scenario's registry (always collected; observation-only,
	// so it never perturbs the verdict). hlchaos -metrics-json merges these
	// in matrix order.
	Metrics *metrics.Registry
}

// Pass reports whether every invariant check passed.
func (v FaultVerdict) Pass() bool { return v.Checks.AllPass() }

// RunFaultScenario builds a fresh chaos rig (client + 3 chain members + 1
// spare), runs a transaction workload through the planned fault, repairs the
// chain if the fault is detected (spare promotion + live catch-up + WAL
// reattach + lock reset), quiesces, and runs every invariant checker. Same
// params, same verdict — byte for byte.
func RunFaultScenario(p FaultParams) FaultVerdict {
	r := newChaosRig(p.Seed, "fm", 0, 0)

	// Plan and install the fault before anything runs, so the fault timeline
	// depends only on (class, seed).
	spec := faults.Plan(p.Class, p.Seed, fmMembers, chaosDetectBound)
	spec.Install(r.plane, r.members)

	// The spare catches up from the client's store.
	r.manage(func(sp *cluster.Node, rejoin func()) {
		r.mgr.CatchUp(sp, 0, fmStoreSize, func(err error) {
			if err != nil {
				r.fail(err)
				return
			}
			rejoin()
		})
	})
	r.run(p.Seed)

	v := FaultVerdict{
		Params:    p,
		Spec:      spec,
		Timeline:  r.plane.Timeline(),
		Failovers: r.mgr.Failovers(),
		DetectIn:  r.detectIn(spec.FaultAt),
		Metrics:   r.reg,
	}
	v.Committed, v.Errored = r.tally()

	client, liveAll := liveImage(r.client), r.liveAll()
	v.Checks = append(v.Checks,
		check.Result{Name: "repair", Err: r.repairErr, Detail: "chain repair path clean"},
		r.quiesceResult(v.Committed, v.Errored),
		check.WALSoundness(liveAll, fmLogBase, fmLogSize),
		check.WALPrefix(liveAll, fmLogBase, fmLogSize),
		check.LocksFree(liveAll, fmLockBase, fmLockStripes),
		check.RegionEqual("object-converge", client, liveAll[1:], fmObjBase, 8*fmObjSlots),
		check.TxnAtomicity(client, fmObjBase, fmObjSlots, r.txns()),
		check.Membership(v.Failovers, spec.ExpectFailover, r.mgr.Paused(),
			len(liveAll)-1, fmMembers, v.DetectIn, chaosDetectBound, chaosChainCfg.HeartbeatEvery),
		check.SpanConservation(r.rec),
		r.restoreEquivalence(),
	)
	var victim *cluster.Node
	if spec.ExpectFailover {
		victim = r.members[spec.VictimIdx]
	}
	v.Checks = append(v.Checks, r.durabilityChecks(victim)...)
	return v
}

// FaultMatrix runs seedsPerClass scenarios of every class in classes,
// seeding cell (class, i) with baseSeed+i, fanned over the configured worker
// pool. Verdicts come back in matrix order (class-major), independent of
// worker interleaving.
func FaultMatrix(classes []faults.Class, baseSeed int64, seedsPerClass int) []FaultVerdict {
	params := make([]FaultParams, 0, len(classes)*seedsPerClass)
	for _, c := range classes {
		for i := 0; i < seedsPerClass; i++ {
			params = append(params, FaultParams{Class: c, Seed: baseSeed + int64(i)})
		}
	}
	out, _ := RunParallel(Parallelism(), len(params), func(i int) (FaultVerdict, error) {
		return RunFaultScenario(params[i]), nil
	})
	return out
}
