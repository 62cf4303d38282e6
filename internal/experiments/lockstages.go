package experiments

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/locks"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/stats"
)

// Lock-contention stage breakdown: where does a contended writer
// acquisition spend its time? The NIC-resident gATOMIC_LOOP program retries
// entirely inside the client NIC (CondRearm re-arms the CAS chain off a
// timer CQ), so its breakdown has a structurally-zero host-cpu stage and
// zero per-retry doorbells; the host-bounced arm (HostOnly) pays a host
// wake-up plus a fresh posting for every retry. The pre-posted loop
// template also amortizes chain setup: its slots are patched in place, so
// steady-state acquisitions ring one doorbell regardless of retry count.

const lockStageBase = 900 << 10

// LockStageResult is one arm's decomposed contended-acquire latency.
type LockStageResult struct {
	Arm string // "nic-program" or "host-bounced"
	StageSums
	// Attempts counts CAS attempts across all ops (retries + the wins).
	Attempts uint64
	// Doorbells counts client MMIO rings during the measured acquisitions —
	// the per-op chain-setup cost the loop template amortizes away.
	Doorbells uint64
	// ProgBranches counts NIC-side control transfers (retry re-arms and
	// loop exits) taken on the client NIC during the acquisitions.
	ProgBranches uint64
}

// classifyLockStage delegates to classifyStage but folds "client-post"
// into "host-cpu": the measurement window opens at issue (so the initial
// posting classifies as client-issue via the prev==nil rule), which makes
// every later client exec in a contended acquisition a host wake-up —
// posting a fresh CAS after a backoff sleep. That is exactly the work the
// NIC-resident loop program eliminates, so it belongs in the host-cpu
// column the comparison is about.
func classifyLockStage(prev, next *span.RoleEvent) string {
	s := classifyStage(prev, next)
	if s == "client-post" {
		return "host-cpu"
	}
	return s
}

// RunLockStageBreakdown measures contended writer acquisitions on one arm.
// Contention is injected without a second lock manager (which would pollute
// the NIC trace): a foreign holder word is installed by direct host stores
// on every replica and released the same way mid-spin, so every traced NIC
// event belongs to the measured acquirer.
func RunLockStageBreakdown(hostOnly bool, ops int) LockStageResult {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: 4, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	defer g.Close()
	m := locks.New(g, eng, lockStageBase, locks.Config{HostOnly: hostOnly})

	// Only the client NIC is traced: the comparison is about where the
	// acquiring HOST burns time, and replica-side events would smear
	// background ring top-ups into the host-cpu column. Everything between
	// a client tx and the returning ack classifies as network (wire plus
	// remote forwarding), which is exactly the resolution the table needs.
	bridge := span.NewBridge(0)
	cl.Client().NIC.SetTracer(bridge.Tracer("client"))

	arm := "nic-program"
	if hostOnly {
		arm = "host-bounced"
	}
	res := LockStageResult{Arm: arm, StageSums: StageSums{Ops: ops}}

	var hold [8]byte
	holder := locks.Word(9, 0)
	for i := range hold {
		hold[i] = byte(holder >> (8 * uint(i)))
	}
	installHolder := func() {
		for ri := 0; ri < 3; ri++ {
			g.Replica(ri).StoreWrite(lockStageBase, hold[:])
		}
	}
	releaseHolder := func() {
		var zero [8]byte
		for ri := 0; ri < 3; ri++ {
			g.Replica(ri).StoreWrite(lockStageBase, zero[:])
		}
	}

	const holdFor = 40 * sim.Microsecond
	for i := 0; i < ops; i++ {
		installHolder()
		eng.Schedule(holdFor, releaseHolder)

		bridge.Reset()
		before := cl.Client().NIC.Counters()
		start := eng.Now()
		acquired := false
		m.WrLock(0, 2, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("lock stages (%s): %v", arm, err))
			}
			acquired = true
		})
		if !eng.RunUntil(func() bool { return acquired }, eng.Now().Add(10*sim.Second)) {
			panic(fmt.Sprintf("lock stages (%s): acquisition stalled", arm))
		}
		end := eng.Now()
		after := cl.Client().NIC.Counters()
		res.add(bridge.Events(), start, end, classifyLockStage)
		res.Doorbells += after.Doorbells - before.Doorbells
		res.ProgBranches += after.ProgBranches - before.ProgBranches

		released := false
		m.WrUnlock(0, 2, func(err error) { released = true })
		if !eng.RunUntil(func() bool { return released }, eng.Now().Add(sim.Second)) {
			panic(fmt.Sprintf("lock stages (%s): release stalled", arm))
		}
	}
	_, retries, _ := m.Stats()
	res.Attempts = uint64(ops) + retries
	return res
}

// LockStageBreakdown runs both arms over the worker pool; results come back
// in input order (NIC program first).
func LockStageBreakdown(ops int) []LockStageResult {
	arms := []bool{false, true}
	out, _ := RunParallel(Parallelism(), len(arms), func(i int) (LockStageResult, error) {
		return RunLockStageBreakdown(arms[i], ops), nil
	})
	return out
}

// LockStageTable renders both arms as mean-per-op stage durations plus the
// offload counters that prove the host is out of the retry loop.
func LockStageTable(rows []LockStageResult) *stats.Table {
	header := []string{"arm", "end-to-end", "attempts/op", "doorbells/op", "branches/op"}
	tb := stats.NewTable(append(header, StageNames...)...)
	for _, r := range rows {
		ops := float64(r.Ops)
		tb.AddRow(append([]string{
			r.Arm,
			fmt.Sprint(r.perOp(r.EndToEnd)),
			fmt.Sprintf("%.1f", float64(r.Attempts)/ops),
			fmt.Sprintf("%.1f", float64(r.Doorbells)/ops),
			fmt.Sprintf("%.1f", float64(r.ProgBranches)/ops),
		}, r.stageCells()...)...)
	}
	return tb
}

// lockstagesScenario renders the contended-lock-acquisition decomposition:
// the NIC-resident gATOMIC_LOOP program vs the host-bounced retry loop.
func lockstagesScenario(e *Env) error {
	e.Println("=== Lock stage breakdown: contended WrLock, group=3, 40us foreign hold ===")
	e.Table(LockStageTable(LockStageBreakdown(microOps(e) / 100)))
	return nil
}
