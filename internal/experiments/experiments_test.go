package experiments

import (
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/ycsb"
)

// Quick parameters keep these assertions fast; the cmd binaries run the
// full-scale versions.
const (
	quickOps    = 1500
	quickSeed   = 7
	quickHogs   = 10
	quickRec    = 300
	quickAppOps = 2500
)

func TestFigure8ShapeGWrite(t *testing.T) {
	hl, err := GWriteLatency(MicroParams{System: HyperLoop, MsgSize: 1024, Ops: quickOps, TenantsPerCore: quickHogs, Durable: true, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := GWriteLatency(MicroParams{System: NaiveEvent, MsgSize: 1024, Ops: quickOps, TenantsPerCore: quickHogs, Durable: true, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Headline shape: two-to-three orders of magnitude at the tail, at
	// least an order at the mean (paper: up to 801.8× tail, ~50× mean).
	if ratio := float64(nv.P99) / float64(hl.P99); ratio < 50 {
		t.Fatalf("p99 ratio %.1f too small (hl=%v nv=%v)", ratio, hl.P99, nv.P99)
	}
	if ratio := float64(nv.Mean) / float64(hl.Mean); ratio < 10 {
		t.Fatalf("mean ratio %.1f too small (hl=%v nv=%v)", ratio, hl.Mean, nv.Mean)
	}
	// HyperLoop is unaffected by replica CPU load: its own p99 stays µs.
	if hl.P99 > 50*sim.Microsecond {
		t.Fatalf("HyperLoop p99 %v inflated by replica load", hl.P99)
	}
}

func TestFigure8ShapeGMemcpy(t *testing.T) {
	hl, err := GMemcpyLatency(MicroParams{System: HyperLoop, MsgSize: 1024, Ops: quickOps, TenantsPerCore: quickHogs, Durable: true, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := GMemcpyLatency(MicroParams{System: NaiveEvent, MsgSize: 1024, Ops: quickOps, TenantsPerCore: quickHogs, Durable: true, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(nv.P99) / float64(hl.P99); ratio < 50 {
		t.Fatalf("gMEMCPY p99 ratio %.1f (hl=%v nv=%v)", ratio, hl.P99, nv.P99)
	}
}

func TestTable2ShapeGCAS(t *testing.T) {
	hl, err := GCASLatency(MicroParams{System: HyperLoop, Ops: quickOps, TenantsPerCore: quickHogs, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	nv, err := GCASLatency(MicroParams{System: NaiveEvent, Ops: quickOps, TenantsPerCore: quickHogs, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 2: 53.9× mean, 302× p95, 849× p99.
	if r := float64(nv.Mean) / float64(hl.Mean); r < 20 {
		t.Fatalf("gCAS mean ratio %.1f (hl=%v nv=%v)", r, hl.Mean, nv.Mean)
	}
	if r := float64(nv.P99) / float64(hl.P99); r < 100 {
		t.Fatalf("gCAS p99 ratio %.1f (hl=%v nv=%v)", r, hl.P99, nv.P99)
	}
}

func TestFigure9Shape(t *testing.T) {
	const total = 8 << 20
	hl, err := Throughput(HyperLoop, 4096, total, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := Throughput(NaiveEvent, 4096, total, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Comparable throughput (within 3× either way)...
	if hl.KopsSec < nv.KopsSec/3 {
		t.Fatalf("HyperLoop throughput %.0f kops/s far below naive %.0f", hl.KopsSec, nv.KopsSec)
	}
	// ...with replica CPU near zero (only the off-critical-path ring
	// replenisher, ~150ns/op) vs multiple busy cores for naive.
	if hl.CPUCorePct > 30 {
		t.Fatalf("HyperLoop replica CPU %.1f%% of a core, want near-zero", hl.CPUCorePct)
	}
	if nv.CPUCorePct < 10*hl.CPUCorePct {
		t.Fatalf("naive replica CPU %.1f%% vs HyperLoop %.1f%%: offload not visible", nv.CPUCorePct, hl.CPUCorePct)
	}
}

func TestFigure10Shape(t *testing.T) {
	base := MicroParams{Ops: 800, TenantsPerCore: quickHogs, Durable: true, Seed: quickSeed}
	hl, err := GroupScaling(HyperLoop, []int{3, 7}, []int{1024}, base)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := GroupScaling(NaiveEvent, []int{3, 7}, []int{1024}, base)
	if err != nil {
		t.Fatal(err)
	}
	// HyperLoop: no blow-up with group size (paper: "no significant
	// performance degradation").
	if float64(hl[1].P99) > 3.5*float64(hl[0].P99) {
		t.Fatalf("HyperLoop p99 blew up with group size: %v → %v", hl[0].P99, hl[1].P99)
	}
	// Naive grows markedly (paper: up to 2.97×) — and sits orders above.
	if nv[1].P99 < nv[0].P99 {
		t.Fatalf("naive p99 shrank with group size: %v → %v", nv[0].P99, nv[1].P99)
	}
	if float64(nv[0].P99) < 20*float64(hl[0].P99) {
		t.Fatalf("naive group-3 p99 %v not far above HyperLoop %v", nv[0].P99, hl[0].P99)
	}
}

func TestFigure11Shape(t *testing.T) {
	run := func(sys System) RocksDBResult {
		r, err := RocksDB(AppParams{System: sys, Records: quickRec, Ops: quickAppOps, TenantsPerCore: quickHogs, Seed: quickSeed})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		return r
	}
	hl := run(HyperLoop)
	ev := run(NaiveEvent)
	pl := run(NaivePolling)
	// Ordering (paper Fig 11): HyperLoop < Naive-Event < Naive-Polling in
	// both mean and tail under co-location.
	if !(hl.Latency.Mean < ev.Latency.Mean && ev.Latency.Mean < pl.Latency.Mean) {
		t.Fatalf("mean ordering violated: hl=%v ev=%v pl=%v",
			hl.Latency.Mean, ev.Latency.Mean, pl.Latency.Mean)
	}
	if hl.Latency.P99 >= pl.Latency.P99 {
		t.Fatalf("tail ordering violated: hl=%v pl=%v", hl.Latency.P99, pl.Latency.P99)
	}
	// Meaningful factors (paper: 5.7× / 24.2× at tail).
	if r := float64(pl.Latency.Mean) / float64(hl.Latency.Mean); r < 3 {
		t.Fatalf("polling/HyperLoop mean ratio %.1f too small", r)
	}
}

func TestFigure12Shape(t *testing.T) {
	run := func(sys System) MongoResult {
		r, err := MongoDB(AppParams{System: sys, Workload: ycsb.WorkloadA, Records: quickRec, Ops: quickAppOps, TenantsPerCore: quickHogs, Seed: quickSeed})
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		return r
	}
	hl := run(HyperLoop)
	nv := run(NaivePolling)
	// Paper: average write latency down by ~79%; avg↔p99 gap shrinks ~81%.
	reduction := 1 - float64(hl.Latency.Mean)/float64(nv.Latency.Mean)
	if reduction < 0.5 {
		t.Fatalf("average latency reduction %.0f%%, want >50%% (hl=%v nv=%v)",
			100*reduction, hl.Latency.Mean, nv.Latency.Mean)
	}
	gapHL := float64(hl.Latency.P99 - hl.Latency.Mean)
	gapNV := float64(nv.Latency.P99 - nv.Latency.Mean)
	if gapHL > 0.7*gapNV {
		t.Fatalf("avg↔p99 gap not reduced: hl=%v nv=%v", gapHL, gapNV)
	}
}

func TestFigure2Shape(t *testing.T) {
	few, err := Motivation(MotivationParams{ReplicaSets: 9, OpsPerSet: 400, Records: 100, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Motivation(MotivationParams{ReplicaSets: 27, OpsPerSet: 400, Records: 100, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2(a): more replica-sets → more context switches and higher
	// latency.
	if many.ContextSwitches <= few.ContextSwitches {
		t.Fatalf("context switches did not grow: %d → %d", few.ContextSwitches, many.ContextSwitches)
	}
	if many.Latency.Mean <= few.Latency.Mean {
		t.Fatalf("latency did not grow with replica-sets: %v → %v", few.Latency.Mean, many.Latency.Mean)
	}
	if many.Latency.P99 <= few.Latency.P99 {
		t.Fatalf("tail did not grow with replica-sets: %v → %v", few.Latency.P99, many.Latency.P99)
	}

	// Figure 2(b): fewer cores → higher latency at fixed load.
	small, err := Motivation(MotivationParams{ReplicaSets: 18, Cores: 4, OpsPerSet: 300, Records: 100, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Motivation(MotivationParams{ReplicaSets: 18, Cores: 16, OpsPerSet: 300, Records: 100, Seed: quickSeed})
	if err != nil {
		t.Fatal(err)
	}
	if small.Latency.Mean <= large.Latency.Mean {
		t.Fatalf("latency did not fall with added cores: 4c=%v 16c=%v",
			small.Latency.Mean, large.Latency.Mean)
	}
}

func TestAblationFlushCost(t *testing.T) {
	vol, dur, err := AblationFlush(1024, 1200, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Durability costs something but not an order of magnitude.
	if dur.Mean <= vol.Mean {
		t.Fatalf("flush interleave free? volatile=%v durable=%v", vol.Mean, dur.Mean)
	}
	if dur.Mean > 3*vol.Mean {
		t.Fatalf("flush interleave too expensive: volatile=%v durable=%v", vol.Mean, dur.Mean)
	}
}

func TestAblationForwardingIsolation(t *testing.T) {
	nic, cpu, err := AblationForwarding(1024, 1200, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// On idle hosts the gap is structural (handler cost + switch), small
	// but real.
	if cpu.Mean <= nic.Mean {
		t.Fatalf("CPU forwarding not slower on idle hosts: nic=%v cpu=%v", nic.Mean, cpu.Mean)
	}
	if cpu.Mean > 20*nic.Mean {
		t.Fatalf("idle-host gap suspiciously large: nic=%v cpu=%v", nic.Mean, cpu.Mean)
	}
}

func TestAblationWakeupBonusMatters(t *testing.T) {
	with, without, err := AblationWakeupBonus(1024, 800, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Without sleeper fairness every handler waits a full round: the mean
	// collapses toward the tail.
	if without.Mean < 5*with.Mean {
		t.Fatalf("FIFO ablation did not inflate mean: with=%v without=%v", with.Mean, without.Mean)
	}
}

func TestAblationReplenishPeriod(t *testing.T) {
	pts, err := AblationReplenishBatch([]sim.Duration{10 * sim.Microsecond, 200 * sim.Microsecond}, 3000, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// More frequent replenishment costs more CPU.
	if pts[0].CPUCorePct < pts[1].CPUCorePct {
		t.Fatalf("replenish CPU did not fall with longer period: %v", pts)
	}
	// Either way, it stays a small fraction of one core.
	if pts[0].CPUCorePct > 50 {
		t.Fatalf("replenisher burns %.1f%% of a core", pts[0].CPUCorePct)
	}
}

func TestAblationChainVsFanout(t *testing.T) {
	chain, fanout, err := AblationChainVsFanout(4, 800, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Fan-out parallelizes backup writes: at equal replica count it should
	// beat the serial chain on latency.
	if fanout.Mean >= chain.Mean {
		t.Fatalf("fanout %v not faster than chain %v", fanout.Mean, chain.Mean)
	}
}

func TestAblationFixedVsManipulated(t *testing.T) {
	fixed, manip, err := AblationFixedVsManipulated(1024, 800, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Manipulation costs a little (metadata scatter) but within 2× of the
	// inflexible strawman — the flexibility is nearly free.
	if manip.Mean < fixed.Mean {
		return // manipulated faster is fine too (metadata is small)
	}
	if float64(manip.Mean) > 2*float64(fixed.Mean) {
		t.Fatalf("manipulation overhead too large: fixed=%v manipulated=%v", fixed.Mean, manip.Mean)
	}
}

func TestMultiGroupCoLocation(t *testing.T) {
	// Many HyperLoop groups share servers with only NIC/wire interference:
	// the probe's latency stays µs-scale. The same co-location with naive
	// groups floods the servers' CPUs.
	hlAlone, err := MultiGroupCoLocation(HyperLoop, 1, 500, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	hlBusy, err := MultiGroupCoLocation(HyperLoop, 16, 500, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	nvBusy, err := MultiGroupCoLocation(NaiveEvent, 16, 500, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	if hlBusy.Probe.Mean > 20*hlAlone.Probe.Mean {
		t.Fatalf("HyperLoop co-location blow-up: alone=%v busy=%v", hlAlone.Probe.Mean, hlBusy.Probe.Mean)
	}
	if hlBusy.Probe.Mean > 200*sim.Microsecond {
		t.Fatalf("HyperLoop probe left µs-scale under co-location: %v", hlBusy.Probe.Mean)
	}
	if nvBusy.Probe.Mean < 2*hlBusy.Probe.Mean {
		t.Fatalf("naive co-location not visibly worse: hl=%v nv=%v", hlBusy.Probe.Mean, nvBusy.Probe.Mean)
	}
}

// TestNaiveEquivalence cross-validates the two datapaths: an identical
// sequence of mixed primitives must leave replicas in identical final
// states whether executed by NICs (HyperLoop) or replica CPUs (Naïve).
func TestNaiveEquivalence(t *testing.T) {
	type opSpec struct {
		kind      int
		off, size int
		src       int
		data      []byte
		new       uint64
	}
	r := sim.NewRand(91)
	const window = 32 << 10
	var specs []opSpec
	for i := 0; i < 80; i++ {
		switch r.Intn(3) {
		case 0:
			size := 1 + r.Intn(200)
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(r.Intn(256))
			}
			specs = append(specs, opSpec{kind: 0, off: r.Intn(window - 256), size: size, data: data})
		case 1:
			specs = append(specs, opSpec{kind: 1,
				off: r.Intn(window - 256), src: r.Intn(window - 256), size: 1 + r.Intn(200)})
		default:
			specs = append(specs, opSpec{kind: 2, off: 8 * r.Intn(window/8), new: r.Uint64()})
		}
	}

	finalState := func(sys System) [][]byte {
		p := MicroParams{System: sys, GroupSize: 3, Seed: 7}
		p.fill()
		rg := newMicroRig(p)
		defer rg.close()
		completed := 0
		var step func(i int)
		step = func(i int) {
			if i >= len(specs) {
				return
			}
			next := func(error) { completed++; step(i + 1) }
			sp := specs[i]
			switch sp.kind {
			case 0:
				rg.cl.Client().StoreWrite(sp.off, sp.data)
				rg.rep.Write(sp.off, sp.size, true, errOnly(next))
			case 1:
				rg.rep.Memcpy(sp.off, sp.src, sp.size, true, errOnly(next))
			default:
				rg.gcas(sp.off, 0, sp.new, next)
			}
		}
		step(0)
		if !rg.eng.RunUntil(func() bool { return completed >= len(specs) || rg.rep.G.Failed() != nil },
			rg.eng.Now().Add(30*sim.Second)) {
			t.Fatalf("%v equivalence run stalled at %d (%v)", sys, completed, rg.rep.G.Failed())
		}
		out := make([][]byte, 3)
		for i := range out {
			out[i] = rg.cl.Replicas()[i].StoreBytes(0, window)
		}
		return out
	}

	coreState := finalState(HyperLoop)
	naiveState := finalState(NaiveEvent)
	for i := 0; i < 3; i++ {
		for j := range coreState[i] {
			if coreState[i][j] != naiveState[i][j] {
				t.Fatalf("replica %d diverges at offset %d: core=%d naive=%d",
					i, j, coreState[i][j], naiveState[i][j])
			}
		}
	}
}

func TestReadScalingAcrossReplicas(t *testing.T) {
	pts, err := ReadScaling([]int{1, 3}, 2000, quickSeed)
	if err != nil {
		t.Fatal(err)
	}
	// Spreading reads across 3 replicas must raise aggregate throughput
	// markedly (§5: "reads can be served from more than one replica to
	// meet demand").
	if pts[1].KopsSec < 2*pts[0].KopsSec {
		t.Fatalf("read throughput did not scale: 1rep=%.0f 3rep=%.0f kops/s",
			pts[0].KopsSec, pts[1].KopsSec)
	}
}
