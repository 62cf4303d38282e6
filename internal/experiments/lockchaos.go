package experiments

import (
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/faults"
	"hyperloop/internal/locks"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
)

// Lock-contention chaos: two coordinators hammer one write lock through
// acquire/hold/release cycles while a seeded NIC stall freezes a replica
// mid-run. The NIC-resident retry programs absorb the stall (attempts
// stretch, budgets don't burn), so the invariants are strict: mutual
// exclusion never breaks, every cycle completes, and the lock word ends
// free on every replica.

// LockContentionParams selects one scenario.
type LockContentionParams struct {
	Seed int64
}

// LockContentionVerdict is one scenario's outcome.
type LockContentionVerdict struct {
	Params   LockContentionParams
	Spec     faults.LockContentionSpec
	Acquired int    // completed acquisitions across both owners
	Retries  uint64 // CAS retries recorded by the lock manager
	MaxHeld  int    // max concurrent critical-section occupancy observed
	Timeline []faults.Event
	Judged
}

// RunLockContention plans and judges one lock-contention scenario.
func RunLockContention(p LockContentionParams) LockContentionVerdict {
	spec := faults.PlanLockContention(p.Seed)
	v := LockContentionVerdict{Params: p, Spec: spec, Judged: Judged{Metrics: metrics.NewRegistry()}}

	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: 4, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	defer g.Close()
	m := locks.New(g, eng, lockStageBase, locks.Config{})
	plane := faults.NewPlane(eng, cl, p.Seed)
	plane.NICStall(spec.StallAt, cl.Replicas()[spec.VictimIdx], spec.StallFor)

	held := 0
	failures := 0
	doneOwners := 0
	var cycle func(owner uint64, remaining int)
	cycle = func(owner uint64, remaining int) {
		if remaining == 0 {
			doneOwners++
			return
		}
		m.WrLock(0, owner, func(err error) {
			if err != nil {
				failures++
				doneOwners++
				return
			}
			held++
			if held > v.MaxHeld {
				v.MaxHeld = held
			}
			v.Acquired++
			eng.Schedule(spec.Hold, func() {
				held--
				m.WrUnlock(0, owner, func(err error) {
					if err != nil {
						failures++
						doneOwners++
						return
					}
					cycle(owner, remaining-1)
				})
			})
		})
	}
	cycle(1, spec.Cycles)
	cycle(2, spec.Cycles)
	finished := eng.RunUntil(func() bool { return doneOwners == 2 }, eng.Now().Add(60*sim.Second))
	v.Timeline = plane.Timeline()
	_, v.Retries, _ = m.Stats()

	c := check.Result{Name: "completion"}
	switch {
	case !finished:
		c.Err = fmt.Errorf("owners stalled: %d of 2 finished", doneOwners)
	case failures > 0:
		c.Err = fmt.Errorf("%d lock operations failed", failures)
	case v.Acquired != 2*spec.Cycles:
		c.Err = fmt.Errorf("acquisitions = %d, want %d", v.Acquired, 2*spec.Cycles)
	default:
		c.Detail = fmt.Sprintf("%d acquisitions, %d retries", v.Acquired, v.Retries)
	}
	v.Checks = append(v.Checks, c)

	c = check.Result{Name: "mutual-exclusion"}
	if v.MaxHeld > 1 {
		c.Err = fmt.Errorf("critical-section occupancy reached %d", v.MaxHeld)
	} else {
		c.Detail = "occupancy never exceeded 1"
	}
	v.Checks = append(v.Checks, c)

	c = check.Result{Name: "lock-free-after"}
	for ri := 0; ri < 3 && c.Err == nil; ri++ {
		b := g.Replica(ri).StoreBytes(lockStageBase, 8)
		var w uint64
		for i := 7; i >= 0; i-- {
			w = w<<8 | uint64(b[i])
		}
		if w != 0 {
			c.Err = fmt.Errorf("replica %d lock word %x after both owners finished", ri, w)
		}
	}
	if c.Err == nil {
		c.Detail = "word 0 on every replica"
	}
	v.Checks = append(v.Checks, c)

	c = check.Result{Name: "contention-real"}
	if v.Retries == 0 {
		c.Err = fmt.Errorf("no retries recorded — scenario exercised nothing")
	} else {
		c.Detail = fmt.Sprintf("%d retries absorbed NIC-side", v.Retries)
	}
	v.Checks = append(v.Checks, c)
	return v
}

// lockContentionAt runs the lock-contention scenario planned for seed.
func lockContentionAt(seed int64) LockContentionVerdict {
	return RunLockContention(LockContentionParams{Seed: seed})
}

func (v LockContentionVerdict) row() []string {
	return []string{fmt.Sprint(v.Spec.Seed), fmt.Sprintf("2x%d", v.Spec.Cycles),
		fmt.Sprint(v.Spec.Hold),
		fmt.Sprintf("r%d@%v+%v", v.Spec.VictimIdx, v.Spec.StallAt, v.Spec.StallFor),
		fmt.Sprint(v.Acquired), fmt.Sprint(v.Retries), v.Checks.Summary()}
}

func (v LockContentionVerdict) detail(e *Env) { printDetail(e, v.Spec, v.Timeline, v.Checks) }
