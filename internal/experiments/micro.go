package experiments

import (
	"fmt"

	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

// MsgSizesLatency is the x-axis of Figures 8 and 10.
var MsgSizesLatency = []int{128, 256, 512, 1024, 2048, 4096, 8192}

// MsgSizesThroughput is the x-axis of Figure 9.
var MsgSizesThroughput = []int{1024, 2048, 4096, 8192, 16384, 32768, 65536}

// GWriteLatency measures gWRITE latency (closed loop) — one cell of
// Figure 8(a) / Figure 10.
func GWriteLatency(p MicroParams) (stats.Summary, error) {
	p.fill()
	r := newMicroRig(p)
	defer r.close()
	r.cl.Client().StoreWrite(0, make([]byte, p.MsgSize))
	hist, err := r.runOps(p.Ops, p.Pipeline, budget(p), func(i int, done func(error)) {
		r.rep.Write(0, p.MsgSize, p.Durable, errOnly(done))
	})
	return hist.Summarize(), err
}

// GMemcpyLatency measures gMEMCPY latency — one cell of Figure 8(b).
func GMemcpyLatency(p MicroParams) (stats.Summary, error) {
	p.fill()
	r := newMicroRig(p)
	defer r.close()
	r.cl.Client().StoreWrite(0, make([]byte, p.MsgSize))
	dst := 1 << 20
	hist, err := r.runOps(p.Ops, p.Pipeline, budget(p), func(i int, done func(error)) {
		r.rep.Memcpy(dst, 0, p.MsgSize, p.Durable, errOnly(done))
	})
	return hist.Summarize(), err
}

// GCASLatency measures gCAS latency — Table 2.
func GCASLatency(p MicroParams) (stats.Summary, error) {
	p.fill()
	r := newMicroRig(p)
	defer r.close()
	hist, err := r.runOps(p.Ops, 1, budget(p), func(i int, done func(error)) {
		// Alternate the lock word so every CAS succeeds.
		old, new := uint64(0), uint64(1)
		if i%2 == 1 {
			old, new = 1, 0
		}
		r.gcas(0, old, new, done)
	})
	return hist.Summarize(), err
}

// budget sizes the simulation budget generously for a run. Without the
// wakeup bonus every hop waits a full scheduling round (~10ms), so the
// ablation needs the larger budget.
func budget(p MicroParams) sim.Duration {
	per := 25 * sim.Millisecond
	if p.NoWakeupBonus {
		per = 80 * sim.Millisecond
	}
	d := sim.Duration(p.Ops) * per
	if d < 10*sim.Second {
		d = 10 * sim.Second
	}
	return d
}

// LatencyRow is one sweep point comparing systems.
type LatencyRow struct {
	MsgSize int
	ByName  map[string]stats.Summary
}

// LatencySweep runs a primitive across message sizes and systems —
// Figure 8(a) and 8(b). The (size, system) grid fans out over the
// configured worker pool; every cell is an independent simulation, so the
// assembled rows are identical to a serial run.
func LatencySweep(prim string, sizes []int, systems []System, base MicroParams) ([]LatencyRow, error) {
	var cell func(MicroParams) (stats.Summary, error)
	switch prim {
	case "gwrite":
		cell = GWriteLatency
	case "gmemcpy":
		cell = GMemcpyLatency
	case "gcas":
		cell = GCASLatency
	default:
		return nil, fmt.Errorf("experiments: unknown primitive %q", prim)
	}
	cells, err := RunParallel(Parallelism(), len(sizes)*len(systems),
		func(i int) (stats.Summary, error) {
			sz, sys := sizes[i/len(systems)], systems[i%len(systems)]
			p := base
			p.System = sys
			p.MsgSize = sz
			s, err := cell(p)
			if err != nil {
				return s, fmt.Errorf("%s/%v/%dB: %w", prim, sys, sz, err)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []LatencyRow
	for si, sz := range sizes {
		row := LatencyRow{MsgSize: sz, ByName: make(map[string]stats.Summary)}
		for yi, sys := range systems {
			row.ByName[sys.String()] = cells[si*len(systems)+yi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ThroughputPoint is one Figure 9 cell: ops rate plus critical-path CPU.
type ThroughputPoint struct {
	MsgSize int
	KopsSec float64
	// CPUCorePct is replica-host CPU consumed during the run, in percent
	// of one core (the paper's Figure 9 right axis).
	CPUCorePct float64
}

// Throughput pushes totalBytes of gWRITEs at the given message size with a
// deep pipeline and measures rate and replica CPU — Figure 9. No background
// tenants: the CPU axis isolates the datapath's own consumption.
func Throughput(sys System, msgSize, totalBytes int, seed int64) (ThroughputPoint, error) {
	p := MicroParams{
		System:         sys,
		MsgSize:        msgSize,
		Ops:            totalBytes / msgSize,
		Pipeline:       64,
		TenantsPerCore: 0,
		Seed:           seed,
	}
	p.fill()
	r := newMicroRig(p)
	defer r.close()
	r.cl.Client().StoreWrite(0, make([]byte, p.MsgSize))
	for _, rep := range r.cl.Replicas() {
		rep.Host.ResetAccounting()
	}
	start := r.eng.Now()
	_, err := r.runOps(p.Ops, p.Pipeline, 120*sim.Second, func(i int, done func(error)) {
		r.rep.Write(0, p.MsgSize, false, errOnly(done))
	})
	if err != nil {
		return ThroughputPoint{}, err
	}
	elapsed := r.eng.Now().Sub(start)
	var cpu float64
	for _, rep := range r.cl.Replicas() {
		cpu += rep.Host.Utilization() * float64(rep.Host.Cores())
	}
	cpu /= float64(len(r.cl.Replicas())) // avg per replica, in cores
	return ThroughputPoint{
		MsgSize:    msgSize,
		KopsSec:    float64(p.Ops) / elapsed.Seconds() / 1e3,
		CPUCorePct: cpu * 100,
	}, nil
}

// GroupScalingRow is one Figure 10 cell.
type GroupScalingRow struct {
	GroupSize int
	MsgSize   int
	P99       sim.Duration
	Mean      sim.Duration
}

// GroupScaling measures gWRITE tail latency across group sizes — Figure 10.
// The (group, size) grid fans out over the configured worker pool.
func GroupScaling(sys System, groupSizes, msgSizes []int, base MicroParams) ([]GroupScalingRow, error) {
	return RunParallel(Parallelism(), len(groupSizes)*len(msgSizes),
		func(i int) (GroupScalingRow, error) {
			g, m := groupSizes[i/len(msgSizes)], msgSizes[i%len(msgSizes)]
			p := base
			p.System = sys
			p.GroupSize = g
			p.MsgSize = m
			s, err := GWriteLatency(p)
			if err != nil {
				return GroupScalingRow{}, fmt.Errorf("group %d size %d: %w", g, m, err)
			}
			return GroupScalingRow{GroupSize: g, MsgSize: m, P99: s.P99, Mean: s.Mean}, nil
		})
}

// ThroughputRow is one Figure 9 sweep row across systems.
type ThroughputRow struct {
	MsgSize int
	ByName  map[string]ThroughputPoint
}

// ThroughputSweep runs Throughput across message sizes and systems —
// Figure 9 — fanning the (size, system) grid out over the configured
// worker pool.
func ThroughputSweep(systems []System, sizes []int, totalBytes int, seed int64) ([]ThroughputRow, error) {
	cells, err := RunParallel(Parallelism(), len(sizes)*len(systems),
		func(i int) (ThroughputPoint, error) {
			sz, sys := sizes[i/len(systems)], systems[i%len(systems)]
			pt, err := Throughput(sys, sz, totalBytes, seed)
			if err != nil {
				return pt, fmt.Errorf("throughput/%v/%dB: %w", sys, sz, err)
			}
			return pt, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []ThroughputRow
	for si, sz := range sizes {
		row := ThroughputRow{MsgSize: sz, ByName: make(map[string]ThroughputPoint)}
		for yi, sys := range systems {
			row.ByName[sys.String()] = cells[si*len(systems)+yi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- §6.1 scenarios ---

// microSystems are the two columns of every §6.1 table.
var microSystems = []System{HyperLoop, NaiveEvent}

// microOps is the measured op count of a microbenchmark cell.
func microOps(e *Env) int {
	if e.Quick {
		return 1500
	}
	return 10000
}

// microSizes is the message-size axis of Figures 8 and 10.
func microSizes(e *Env) []int {
	if e.Quick {
		return []int{128, 1024, 8192}
	}
	return MsgSizesLatency
}

func microBase(e *Env) MicroParams {
	return MicroParams{Ops: microOps(e), TenantsPerCore: 10, Durable: true, Seed: e.Seed}
}

// latencyScenario renders Figure 8(a) or 8(b): one primitive's latency
// across message sizes, HyperLoop against the Naive baseline.
func latencyScenario(title, prim string) func(*Env) error {
	return func(e *Env) error {
		e.Printf("=== %s (group=3, 10:1 co-location, durable) ===\n", title)
		rows, err := LatencySweep(prim, microSizes(e), microSystems, microBase(e))
		if err != nil {
			return err
		}
		t := stats.NewTable("size", "HL-avg", "HL-p99", "Naive-avg", "Naive-p99", "p99-ratio")
		for _, r := range rows {
			hl, nv := r.ByName["HyperLoop"], r.ByName["Naive-Event"]
			t.AddRow(fmt.Sprint(r.MsgSize), us(hl.Mean), us(hl.P99), us(nv.Mean), us(nv.P99),
				fmt.Sprintf("%.0fx", float64(nv.P99)/float64(hl.P99)))
		}
		e.Table(t)
		return nil
	}
}

func table2Scenario(e *Env) error {
	e.Println("=== Table 2: gCAS latency (group=3, 10:1 co-location) ===")
	rows, err := LatencySweep("gcas", []int{1024}, microSystems, microBase(e))
	if err != nil {
		return err
	}
	hl, nv := rows[0].ByName["HyperLoop"], rows[0].ByName["Naive-Event"]
	t := stats.NewTable("system", "avg", "p95", "p99")
	t.AddRow("Naive-RDMA", us(nv.Mean), us(nv.P95), us(nv.P99))
	t.AddRow("HyperLoop", us(hl.Mean), us(hl.P95), us(hl.P99))
	t.AddRow("ratio",
		fmt.Sprintf("%.1fx", float64(nv.Mean)/float64(hl.Mean)),
		fmt.Sprintf("%.1fx", float64(nv.P95)/float64(hl.P95)),
		fmt.Sprintf("%.1fx", float64(nv.P99)/float64(hl.P99)))
	e.Table(t)
	return nil
}

func fig9Scenario(e *Env) error {
	sizes, totalBytes := MsgSizesThroughput, 256<<20
	if e.Quick {
		sizes, totalBytes = []int{1024, 8192, 65536}, 16<<20
	}
	e.Printf("=== Figure 9: gWRITE throughput + replica CPU (%d MB total) ===\n", totalBytes>>20)
	rows, err := ThroughputSweep(microSystems, sizes, totalBytes, e.Seed)
	if err != nil {
		return err
	}
	t := stats.NewTable("size", "HL-kops/s", "HL-cpu%core", "Naive-kops/s", "Naive-cpu%core")
	for _, r := range rows {
		hl, nv := r.ByName["HyperLoop"], r.ByName["Naive-Event"]
		t.AddRow(fmt.Sprint(r.MsgSize),
			fmt.Sprintf("%.0f", hl.KopsSec), fmt.Sprintf("%.1f", hl.CPUCorePct),
			fmt.Sprintf("%.0f", nv.KopsSec), fmt.Sprintf("%.1f", nv.CPUCorePct))
	}
	e.Table(t)
	return nil
}

func fig10Scenario(e *Env) error {
	e.Println("=== Figure 10: gWRITE p99 vs group size (10:1 co-location) ===")
	groups, sizes := []int{3, 5, 7}, microSizes(e)
	hl, err := GroupScaling(HyperLoop, groups, sizes, microBase(e))
	if err != nil {
		return err
	}
	nv, err := GroupScaling(NaiveEvent, groups, sizes, microBase(e))
	if err != nil {
		return err
	}
	// GroupScaling returns the grid group-major, so cell (g, m) of either
	// system is at gi*len(sizes)+mi.
	t := stats.NewTable("size", "HL-g3", "HL-g5", "HL-g7", "Naive-g3", "Naive-g5", "Naive-g7")
	for mi, m := range sizes {
		cells := []string{fmt.Sprint(m)}
		for _, rows := range [][]GroupScalingRow{hl, nv} {
			for gi := range groups {
				cells = append(cells, us(rows[gi*len(sizes)+mi].P99))
			}
		}
		t.AddRow(cells...)
	}
	e.Table(t)
	return nil
}
