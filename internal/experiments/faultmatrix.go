package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"strings"

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
	Judged
}

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
		Judged:    Judged{Metrics: r.reg},
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

func (v FaultVerdict) row() []string {
	detect := "-"
	if v.Failovers > 0 {
		detect = fmt.Sprint(v.DetectIn)
	}
	return []string{v.Spec.Class.String(), fmt.Sprint(v.Spec.Seed),
		fmt.Sprintf("r%d", v.Spec.VictimIdx), fmt.Sprint(v.Spec.FaultAt), detect,
		fmt.Sprintf("%d/%d", v.Committed, v.Errored), v.Checks.Summary()}
}

func (v FaultVerdict) detail(e *Env) { printDetail(e, v.Spec, v.Timeline, v.Checks) }

func chaosFlags(fs *flag.FlagSet) {
	fs.Int("seeds-per-class", 2, "seeds run per scenario class")
	fs.String("classes", "all", "comma-separated class names, or all")
}

// chaosScenario runs the deterministic fault matrix: every requested class
// injected into a live replicated-transaction cluster, a verdict row per
// (class, seed). The chain classes share the first table; the classes that
// run on another plane (sharded, serving, lock, cold-restore) are judged by
// their own checker sets and get a table each. -engine-workers N > 0 appends
// the partitioned-engine determinism gate.
func chaosScenario(e *Env) error {
	requested := faults.AllClasses
	if s := e.Str("classes"); s != "all" {
		requested = nil
		for _, name := range strings.Split(s, ",") {
			c, err := faults.ParseClass(strings.TrimSpace(name))
			if err != nil {
				return fmt.Errorf("%w: %v", ErrUsage, err)
			}
			requested = append(requested, c)
		}
	}
	n := e.Int("seeds-per-class")
	var chain []faults.Class
	own := map[faults.Class]bool{} // requested classes that run on their own plane
	for _, c := range requested {
		switch c {
		case faults.MigrationInflight, faults.AdmissionBurst, faults.LockContention, faults.ColdRestore:
			own[c] = true
		default:
			chain = append(chain, c)
		}
	}
	title := func(what string) string {
		return fmt.Sprintf("%s: %d scenarios (base seed %d)", what, n, e.Seed)
	}
	printVerdicts(e, fmt.Sprintf("Fault matrix: %d classes x %d seeds (base seed %d)", len(chain), n, e.Seed),
		FaultMatrix(chain, e.Seed, n),
		"class", "seed", "victim", "fault@", "detect", "txns ok/err", "checks")
	if own[faults.MigrationInflight] {
		migrationMatrix(e, n)
	}
	if own[faults.AdmissionBurst] {
		printVerdicts(e, title("Admission-burst"), seedMatrix(e.Seed, n, admissionBurstAt),
			"seed", "burst", "bucket", "throttled", "victim p99 base/burst/off", "checks")
		// The QoS-on arm of the tenant-burst gate: the full elastic scenario
		// (throttle, funded edge scale-out, spend cap) with the victim's p99
		// held within 10% of baseline as a hard check.
		printVerdicts(e, title("Tenant-isolation (QoS on)"), seedMatrix(e.Seed, n, tenantIsolationAt),
			"seed", "victim p99 base/burst/off", "aggressor acked", "steps/spent", "checks")
	}
	if own[faults.LockContention] {
		printVerdicts(e, title("Lock-contention"), seedMatrix(e.Seed, n, lockContentionAt),
			"seed", "cycles", "hold", "stall", "acquired", "retries", "checks")
	}
	if own[faults.ColdRestore] {
		printVerdicts(e, title("Cold-restore"), seedMatrix(e.Seed, n, coldRestoreAt),
			"seed", "victim", "fault@", "chaos", "rto", "rpo-cold", "acked-lost", "attempts", "checks")
	}
	if e.EngineWorkers > 0 {
		printVerdicts(e, fmt.Sprintf("Partitioned-engine determinism: 16 shards, workers 1 vs %d (seed %d)",
			e.EngineWorkers, e.Seed), []engineGate{runEngineGate(e.Seed, e.EngineWorkers)},
			"workers", "result")
	}
	printSummary(e, "scenarios")
	return nil
}

// engineGate is the partitioned-engine determinism verdict: the seeded
// 16-shard cell run serially and again at N workers must produce
// byte-identical results and metrics dumps, and both runs must pass the
// conservative-lookahead skew check.
type engineGate struct {
	workers int
	sum     string // the serial run's result line
	fail    string // why the gate failed ("" = passed)
}

func runEngineGate(seed int64, workers int) engineGate {
	run := func(w int) (string, []byte, error) {
		r := RunPartitionedScaling(PartitionedScalingParams{
			Shards: 16, Workers: w, Seed: seed, OpsPerShard: 100, Metrics: true,
		})
		if !r.Skew.Pass() {
			return "", nil, fmt.Errorf("skew check: %w", r.Skew.Err)
		}
		dump, err := r.MergedRegistry().ExportJSON()
		return r.summary(), dump, err
	}
	g := engineGate{workers: workers}
	serialSum, serialDump, err := run(1)
	parSum, parDump, perr := run(workers)
	g.sum = serialSum
	switch {
	case err != nil:
		g.fail = fmt.Sprintf("workers=1: %v", err)
	case perr != nil:
		g.fail = fmt.Sprintf("workers=%d: %v", workers, perr)
	case serialSum != parSum:
		g.fail = fmt.Sprintf("results diverged: %s vs %s", serialSum, parSum)
	case !bytes.Equal(serialDump, parDump):
		g.fail = "metrics dumps differ"
	}
	return g
}

func (g engineGate) Pass() bool                  { return g.fail == "" }
func (g engineGate) registry() *metrics.Registry { return nil }

func (g engineGate) row() []string {
	result := "results and metrics dumps byte-identical, skew checks clean"
	if !g.Pass() {
		result = g.fail
	}
	return []string{fmt.Sprintf("1 vs %d", g.workers), result}
}

func (g engineGate) detail(e *Env) {
	if g.Pass() {
		e.Printf("    %s\n", g.sum)
	}
}
