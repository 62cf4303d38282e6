package experiments

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
)

// AblationFlush quantifies the cost of durability: gWRITE with and without
// the interleaved gFLUSH (§4.2). Returns (volatile, durable) summaries.
func AblationFlush(msgSize, ops int, seed int64) (stats.Summary, stats.Summary, error) {
	base := MicroParams{System: HyperLoop, MsgSize: msgSize, Ops: ops, TenantsPerCore: 0, Seed: seed}
	v := base
	v.Durable = false
	volatileS, err := GWriteLatency(v)
	if err != nil {
		return stats.Summary{}, stats.Summary{}, err
	}
	d := base
	d.Durable = true
	durableS, err := GWriteLatency(d)
	return volatileS, durableS, err
}

// AblationReplenishBatch measures replica CPU consumed by ring
// replenishment as the batch period varies — the off-critical-path cost
// HyperLoop trades for a CPU-free datapath.
type ReplenishPoint struct {
	Period      sim.Duration
	CPUCorePct  float64 // mean replica CPU in % of one core
	MeanLatency sim.Duration
}

// AblationReplenishBatch sweeps the replenisher period under a pipelined
// gWRITE load.
func AblationReplenishBatch(periods []sim.Duration, ops int, seed int64) ([]ReplenishPoint, error) {
	var out []ReplenishPoint
	for _, period := range periods {
		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 16 << 20, Seed: seed})
		g := core.New(cl, core.Config{Depth: 2048, MaxInflight: 128, ReplenishEvery: period})
		cl.Client().StoreWrite(0, make([]byte, 1024))
		for _, rep := range cl.Replicas() {
			rep.Host.ResetAccounting()
		}
		hist := stats.NewHistogram()
		completed, launched := 0, 0
		var launch func()
		launch = func() {
			if launched >= ops {
				return
			}
			launched++
			start := eng.Now()
			g.GWrite(0, 1024, true, func(r core.Result) {
				if r.Err == nil {
					hist.Record(eng.Now().Sub(start))
				}
				completed++
				launch()
			})
		}
		for i := 0; i < 64; i++ {
			launch()
		}
		if !eng.RunUntil(func() bool { return completed >= ops || g.Failed() != nil }, eng.Now().Add(60*sim.Second)) {
			return nil, fmt.Errorf("replenish ablation %v: stalled (%v)", period, g.Failed())
		}
		if g.Failed() != nil {
			return nil, g.Failed()
		}
		var cpu float64
		for _, rep := range cl.Replicas() {
			cpu += rep.Host.Utilization() * float64(rep.Host.Cores())
		}
		cpu /= float64(len(cl.Replicas()))
		out = append(out, ReplenishPoint{Period: period, CPUCorePct: cpu * 100, MeanLatency: hist.Mean()})
		g.Close()
	}
	return out, nil
}

// AblationForwarding contrasts WAIT-triggered NIC forwarding (HyperLoop)
// with CPU forwarding (Naive-Event) on otherwise idle hosts: the residual
// gap is pure datapath cost, isolating the §4.1 mechanism from the
// multi-tenancy effect.
func AblationForwarding(msgSize, ops int, seed int64) (nic, cpu stats.Summary, err error) {
	nic, err = GWriteLatency(MicroParams{System: HyperLoop, MsgSize: msgSize, Ops: ops, TenantsPerCore: 0, Seed: seed})
	if err != nil {
		return
	}
	cpu, err = GWriteLatency(MicroParams{System: NaiveEvent, MsgSize: msgSize, Ops: ops, TenantsPerCore: 0, Seed: seed})
	return
}

// AblationWakeupBonus removes the CFS sleeper-fairness model (pure FIFO
// queueing behind tenants) to show how much of the Naive latency profile
// the scheduler model itself contributes.
func AblationWakeupBonus(msgSize, ops int, seed int64) (withBonus, withoutBonus stats.Summary, err error) {
	run := func(noBonus bool) (stats.Summary, error) {
		p := MicroParams{
			System: NaiveEvent, MsgSize: msgSize, Ops: ops,
			TenantsPerCore: 10, Seed: seed, NoWakeupBonus: noBonus,
		}
		return GWriteLatency(p)
	}
	withBonus, err = run(false)
	if err != nil {
		return
	}
	withoutBonus, err = run(true)
	return
}

// AblationChainVsFanout compares the chain topology against the §7
// FaRM-style fan-out for the same replica count: the chain pays serial
// hops, the fan-out pays parallel writes plus an all-acks barrier.
func AblationChainVsFanout(replicas, ops int, seed int64) (chain, fanout stats.Summary, err error) {
	chainS, err := GWriteLatency(MicroParams{
		System: HyperLoop, GroupSize: replicas, MsgSize: 1024, Ops: ops,
		TenantsPerCore: 0, Durable: true, Seed: seed,
	})
	if err != nil {
		return
	}
	chain = chainS

	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: replicas + 1, StoreSize: 16 << 20, Seed: seed})
	g := core.NewFanout(eng, cl.Client(), cl.Replicas()[0], cl.Replicas()[1:], core.Config{Depth: 1024})
	cl.Client().StoreWrite(0, make([]byte, 1024))
	hist := stats.NewHistogram()
	completed := 0
	var issue func()
	issue = func() {
		start := eng.Now()
		g.GWrite(0, 1024, true, func(r core.Result) {
			if r.Err == nil {
				hist.Record(eng.Now().Sub(start))
			}
			completed++
			if completed < ops {
				issue()
			}
		})
	}
	issue()
	if !eng.RunUntil(func() bool { return completed >= ops || g.Failed() != nil }, eng.Now().Add(60*sim.Second)) {
		err = fmt.Errorf("fanout ablation stalled at %d/%d (%v)", completed, ops, g.Failed())
		return
	}
	fanout = hist.Summarize()
	return
}

// AblationFixedVsManipulated compares the §4.1 fixed-replication strawman
// (static descriptors, one buffer shape) against full remote WQE
// manipulation: the manipulated path's extra cost is the metadata SEND and
// descriptor scatter.
func AblationFixedVsManipulated(msgSize, ops int, seed int64) (fixed, manipulated stats.Summary, err error) {
	manipulated, err = GWriteLatency(MicroParams{
		System: HyperLoop, MsgSize: msgSize, Ops: ops, TenantsPerCore: 0, Seed: seed,
	})
	if err != nil {
		return
	}
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 16 << 20, Seed: seed})
	g := core.NewFixedChain(cl, 0, msgSize, core.Config{Depth: 1024})
	cl.Client().StoreWrite(0, make([]byte, msgSize))
	hist := stats.NewHistogram()
	completed := 0
	var issue func()
	issue = func() {
		start := eng.Now()
		g.Write(func(r core.Result) {
			if r.Err == nil {
				hist.Record(eng.Now().Sub(start))
			}
			completed++
			if completed < ops {
				issue()
			}
		})
	}
	issue()
	if !eng.RunUntil(func() bool { return completed >= ops || g.Failed() != nil }, eng.Now().Add(60*sim.Second)) {
		err = fmt.Errorf("fixed ablation stalled at %d/%d (%v)", completed, ops, g.Failed())
		return
	}
	fixed = hist.Summarize()
	return
}

// MultiGroupPoint is one co-location sweep cell: many replication groups
// sharing the same three servers (the multi-tenant deployment the paper
// targets), measured from one probe group.
type MultiGroupPoint struct {
	Groups int
	Probe  stats.Summary
}

// MultiGroupCoLocation co-locates n replication groups of the given system
// on three shared servers and measures one group's gWRITE latency while
// the others run closed-loop traffic. HyperLoop groups should interfere
// only through the NICs and wire (µs-scale); Naïve groups contend for the
// servers' CPUs.
func MultiGroupCoLocation(sys System, groups, ops int, seed int64) (MultiGroupPoint, error) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     4, // node 0 drives every group; nodes 1-3 are the shared servers
		StoreSize: (groups + 1) << 16,
		Seed:      seed,
	})
	servers := cl.Replicas()
	client := cl.Client()

	members := make([]wal.CoreReplicator, groups)
	for i := range members {
		if sys == HyperLoop {
			members[i].G = core.NewWithNodes(eng, client, servers, core.Config{Depth: 512})
		} else {
			members[i].G = naive.NewWithNodes(eng, client, servers, naive.Config{Mode: naive.Event})
		}
	}
	// Distinct 64KB windows per group so stores do not collide.
	for i := range members {
		client.StoreWrite(i<<16, make([]byte, 1024))
	}

	// Background groups: closed-loop traffic forever.
	for i := 1; i < groups; i++ {
		i := i
		var loop func()
		loop = func() {
			members[i].Write(i<<16, 1024, true, func(res core.Result) {
				if res.Err == nil {
					loop()
				}
			})
		}
		loop()
	}

	// Probe group: measured ops.
	hist := stats.NewHistogram()
	completed := 0
	var probe func()
	probe = func() {
		start := eng.Now()
		members[0].Write(0, 1024, true, func(res core.Result) {
			if res.Err == nil {
				hist.Record(eng.Now().Sub(start))
			}
			completed++
			if completed < ops {
				probe()
			}
		})
	}
	probe()
	failed := members[0].G.Failed
	if !eng.RunUntil(func() bool { return completed >= ops || failed() != nil },
		eng.Now().Add(120*sim.Second)) {
		return MultiGroupPoint{}, fmt.Errorf("multigroup stalled at %d/%d (%v)", completed, ops, failed())
	}
	if err := failed(); err != nil {
		return MultiGroupPoint{}, err
	}
	return MultiGroupPoint{Groups: groups, Probe: hist.Summarize()}, nil
}

// ReadScalingPoint reports aggregate replica-read throughput when reads
// spread across `Replicas` chain members.
type ReadScalingPoint struct {
	Replicas int
	KopsSec  float64
}

// ReadScaling measures the §5 claim that read locks let every replica
// serve consistent reads "for higher read throughput": aggregate one-sided
// read throughput with clients spread across 1, 2, or 3 replicas.
func ReadScaling(spread []int, readsPer int, seed int64) ([]ReadScalingPoint, error) {
	var out []ReadScalingPoint
	for _, nrep := range spread {
		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 16 << 20, Seed: seed})
		g := core.New(cl, core.Config{Depth: 256})

		// One one-sided reader pipeline per target replica.
		type reader struct {
			qp  *rdma.QP
			buf *rdma.MemoryRegion
		}
		var readers []reader
		for i := 0; i < nrep; i++ {
			q, _ := cluster.ConnectPair(cl.Client(), cl.Replicas()[i], 64, 1)
			q.SendCQ().SetAutoDrain(true)
			readers = append(readers, reader{
				qp:  q,
				buf: cl.Client().NIC.RegisterRAM(1024, rdma.AccessLocalWrite),
			})
		}
		total := readsPer * nrep
		completed := 0
		start := eng.Now()
		for i := range readers {
			rd := readers[i]
			issued := 0
			var loop func()
			loop = func() {
				if issued >= readsPer {
					return
				}
				issued++
				rd.qp.SendCQ().SetCallback(func(e rdma.CQE) {
					rd.qp.SendCQ().SetCallback(nil)
					completed++
					loop()
				})
				rd.qp.PostSend(rdma.WQE{
					Opcode: rdma.OpRead, Signaled: true,
					RKey: cl.Replicas()[i].Store.RKey(), RAddr: 0,
					SGEs: []rdma.SGE{{LKey: rd.buf.LKey(), Offset: 0, Length: 1024}},
				})
			}
			loop()
		}
		if !eng.RunUntil(func() bool { return completed >= total }, eng.Now().Add(60*sim.Second)) {
			g.Close()
			return nil, fmt.Errorf("read scaling stalled at %d/%d", completed, total)
		}
		elapsed := eng.Now().Sub(start)
		out = append(out, ReadScalingPoint{
			Replicas: nrep,
			KopsSec:  float64(total) / elapsed.Seconds() / 1e3,
		})
		g.Close()
	}
	return out, nil
}

// multigroupScenario sweeps co-located replication groups sharing three
// servers — the multi-tenant deployment study (extension beyond the paper's
// figures).
func multigroupScenario(e *Env) error {
	e.Println("=== Multi-group co-location: probe-group gWRITE latency ===")
	counts := []int{1, 16, 64}
	pts, err := RunParallel(Parallelism(), len(counts)*len(microSystems),
		func(i int) (MultiGroupPoint, error) {
			return MultiGroupCoLocation(microSystems[i%len(microSystems)],
				counts[i/len(microSystems)], microOps(e)/4, e.Seed)
		})
	if err != nil {
		return err
	}
	t := stats.NewTable("groups", "HL-avg", "HL-p99", "Naive-avg", "Naive-p99")
	for ci, n := range counts {
		hl, nv := pts[ci*len(microSystems)], pts[ci*len(microSystems)+1]
		t.AddRow(fmt.Sprint(n), us(hl.Probe.Mean), us(hl.Probe.P99), us(nv.Probe.Mean), us(nv.Probe.P99))
	}
	e.Table(t)
	return nil
}

// ablationsScenario prints the DESIGN.md §5 one-line ablations.
func ablationsScenario(e *Env) error {
	ops := microOps(e)
	e.Println("=== Ablations (DESIGN.md §5) ===")
	vol, dur, err := AblationFlush(1024, ops, e.Seed)
	if err != nil {
		return err
	}
	e.Printf("gFLUSH interleave:    volatile avg %s -> durable avg %s (+%.0f%%)\n",
		us(vol.Mean), us(dur.Mean), 100*(float64(dur.Mean)/float64(vol.Mean)-1))

	nic, cpu, err := AblationForwarding(1024, ops, e.Seed)
	if err != nil {
		return err
	}
	e.Printf("forwarding (idle):    NIC avg %s vs CPU avg %s (%.1fx)\n",
		us(nic.Mean), us(cpu.Mean), float64(cpu.Mean)/float64(nic.Mean))

	pts, err := AblationReplenishBatch(
		[]sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond, 1000 * sim.Microsecond}, 4000, e.Seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		e.Printf("replenish every %-7v -> replica CPU %5.1f%%core, avg latency %s\n",
			p.Period, p.CPUCorePct, us(p.MeanLatency))
	}

	with, without, err := AblationWakeupBonus(1024, ops/2, e.Seed)
	if err != nil {
		return err
	}
	e.Printf("scheduler model:      CFS-wakeup avg %s vs pure-FIFO avg %s\n",
		us(with.Mean), us(without.Mean))
	return nil
}
