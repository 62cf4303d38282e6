package hyperloop

// Simulator-speed benchmarks and host-cost pins. The benchmarks time the
// simulator's own wall-clock cost per simulated operation (the *Hot
// benchmarks) and per partitioned cell (BenchmarkPartitionedEngine); they
// are engineering metrics, not paper figures, which the hl CLI regenerates
// (cmd/hl). The tests pin allocations and engine events per operation.
//
// Run with: go test -run xxx -bench . -benchmem

import (
	"math/rand"
	"testing"
	"time"

	"hyperloop/internal/cpusched"
	"hyperloop/internal/experiments"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
)

// BenchmarkGWriteHot measures the simulator's own speed on the hot path
// (how many simulated gWRITEs per wall-clock second) — an engineering
// metric, not a paper figure.
func BenchmarkGWriteHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	tb.Client().StoreWrite(0, make([]byte, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		tb.Group.GWrite(0, 1024, true, func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}

// allocsPerOp counts every allocation of ops consecutive runs of op and
// returns their mean. One run over the whole window counts exactly, where
// testing.AllocsPerRun(ops, op) truncates its per-run mean and so hides a
// stray allocation every few hundred ops. AllocsPerRun runs the window once
// uncounted first, so the counted ops follow a further ops of warm-up.
func allocsPerOp(ops int, op func()) float64 {
	window := func() {
		for i := 0; i < ops; i++ {
			op()
		}
	}
	return testing.AllocsPerRun(1, window) / float64(ops)
}

// gWriteAllocs returns the allocations of one durable 1 KiB gWRITE through a
// 3-replica group in steady state, with tracer (nil = none) on every NIC.
func gWriteAllocs(t *testing.T, tracer func(rdma.TraceEvent)) float64 {
	t.Helper()
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	for _, n := range tb.Cluster.Nodes {
		n.NIC.SetTracer(tracer)
	}
	tb.Client().StoreWrite(0, make([]byte, 1024))
	done := 0
	onDone := func(Result) { done++ }
	pred := func() bool { return done > 0 }
	op := func() {
		done = 0
		if err := tb.Group.GWrite(0, 1024, true, onDone); err != nil {
			t.Fatal(err)
		}
		if !eng.RunUntil(pred, eng.Now().Add(Second)) {
			t.Fatal("gWRITE did not complete")
		}
	}
	for i := 0; i < 2000; i++ { // past the first replenish rounds: pools and scratch are warm
		op()
	}
	return allocsPerOp(2000, op)
}

// TestGWriteAllocCeiling pins the host cost of the NIC datapath (ROADMAP
// 5a): a durable gWRITE allocates nothing in steady state, and attaching a
// tracer that formats nothing costs exactly nothing — the same count as no
// tracer at all.
func TestGWriteAllocCeiling(t *testing.T) {
	const ceiling = 0
	bare := gWriteAllocs(t, nil)
	traced := gWriteAllocs(t, func(rdma.TraceEvent) {})
	if bare > ceiling {
		t.Errorf("durable 1 KiB gWRITE allocates %v/op, ceiling %d", bare, ceiling)
	}
	if traced != bare {
		t.Errorf("no-op tracer changes allocations: %v/op traced vs %v/op bare", traced, bare)
	}
}

// The storage hot paths above a group (DESIGN §18, "above core"): each
// xxxHotOp wires the layer over a fresh 3-replica testbed and returns a
// closure running ONE operation to completion in virtual time, with every
// callback and predicate bound up front so the closure's allocations are the
// layer's own. The Benchmark*Hot functions time it; TestStorageAllocCeilings
// pins it.
const (
	hotLogSize  = 256 << 10
	hotLockBase = 1 << 20
	hotObjBase  = 2 << 20
)

// runOne drives eng until the op that start issued reports completion.
func runOne(tb testing.TB, eng *Engine, what string) (finished func(error), run func(start func())) {
	done := false
	pred := func() bool { return done }
	finished = func(err error) {
		if err != nil {
			tb.Fatalf("%s: %v", what, err)
		}
		done = true
	}
	run = func(start func()) {
		done = false
		start()
		if !eng.RunUntil(pred, eng.Now().Add(Second)) {
			tb.Fatalf("%s did not complete", what)
		}
	}
	return finished, run
}

// walHotOp: one durable 1 KiB append, its execute and the head advance.
func walHotOp(tb testing.TB) (op func(), closeRig func()) {
	eng := NewEngine()
	bed := NewTestbed(eng, 3)
	finished, run := runOne(tb, eng, "wal append+execute")
	var log *WAL
	run(func() { log = NewWAL(NodeStore(bed.Client()), CoreReplicator(bed.Group), 0, hotLogSize, finished) })
	entry := []WALEntry{{Offset: hotObjBase, Data: make([]byte, 1024)}}
	appended := func(err error) {
		if err == nil {
			err = log.ExecuteAndAdvance(finished)
		}
		if err != nil {
			finished(err)
		}
	}
	start := func() {
		if err := log.Append(entry, appended); err != nil {
			tb.Fatal(err)
		}
	}
	return func() { run(start) }, bed.Group.Close
}

// kvPutHotOp: one 128 B put through its ack and its commit to the data
// region (the executor is idle again when the op returns).
func kvPutHotOp(tb testing.TB) (op func(), closeRig func()) {
	eng := NewEngine()
	bed := NewTestbed(eng, 3)
	finished, run := runOne(tb, eng, "kvstore put")
	var db *KVStore
	run(func() {
		db = OpenKVStore(NodeStore(bed.Client()), CoreReplicator(bed.Group),
			KVConfig{LogSize: hotLogSize, DataBase: hotObjBase, DataSize: 1 << 20}, finished)
	})
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = string(rune('a'+i)) + "-key"
	}
	val := make([]byte, 128)
	next := 0
	start := func() {
		if err := db.Put(keys[next%len(keys)], val, nil); err != nil {
			tb.Fatal(err)
		}
		next++
		db.Commit(finished)
	}
	return func() { run(start) }, bed.Group.Close
}

// txnCommitHotOp: one transaction writing two objects on different lock
// stripes, from Begin through the final unlock, with host-driven locks.
func txnCommitHotOp(tb testing.TB) (op func(), closeRig func()) {
	eng := NewEngine()
	bed := NewTestbed(eng, 3)
	finished, run := runOne(tb, eng, "txn commit")
	store := NodeStore(bed.Client())
	var log *WAL
	run(func() { log = NewWAL(store, CoreReplicator(bed.Group), 0, hotLogSize, finished) })
	lm := NewLockManager(bed.Group, eng, hotLockBase, LockConfig{HostOnly: true})
	mgr := NewTxnManager(eng, log, store, lm, TxnConfig{})
	val := make([]byte, 64)
	start := func() {
		t, err := mgr.Begin()
		if err == nil {
			err = t.Write(hotObjBase, val)
		}
		if err == nil {
			err = t.Write(hotObjBase+64, val)
		}
		if err == nil {
			err = t.Commit(finished)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return func() { run(start) }, bed.Group.Close
}

func benchHotOp(b *testing.B, rig func(testing.TB) (func(), func())) {
	op, closeRig := rig(b)
	defer closeRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkWALAppendHot, BenchmarkKVPutHot and BenchmarkTxnCommitHot measure
// the simulator's own cost per storage-layer operation (engineering
// metrics, beside BenchmarkGWriteHot).
func BenchmarkWALAppendHot(b *testing.B) { benchHotOp(b, walHotOp) }
func BenchmarkKVPutHot(b *testing.B)     { benchHotOp(b, kvPutHotOp) }
func BenchmarkTxnCommitHot(b *testing.B) { benchHotOp(b, txnCommitHotOp) }

// TestStorageAllocCeilings pins the host cost of the layers above a group:
// with pooled op records, pre-bound completions, records encoded straight
// into the log ring and overwrites copied into the memtable's existing value
// buffer, what an operation still allocates is what it hands to its caller —
// the waiter list of an explicit Commit, a transaction and its write
// buffers — not per-step closures, staging buffers or value copies.
func TestStorageAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		rig     func(testing.TB) (func(), func())
		ceiling float64
	}{
		{"wal append+execute+advance", walHotOp, 0},
		{"kvstore put through ack and commit", kvPutHotOp, 1},
		{"two-object txn commit, host-only locks", txnCommitHotOp, 6},
	} {
		op, closeRig := c.rig(t)
		for i := 0; i < 2000; i++ { // past the first replenish rounds and ring laps: pools are warm
			op()
		}
		if got := allocsPerOp(2000, op); got > c.ceiling {
			t.Errorf("%s allocates %v/op, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v allocs/op (ceiling %v)", c.name, got, c.ceiling)
		}
		closeRig()
	}
}

// The primitive rigs below drive a 3-replica group of either arm one op at a
// time through a fixed cycle of durable 1 KiB primitives. mixCycle is the
// benchmark's 50/20/20/10 gWRITE/gCAS/gMEMCPY/gFLUSH mix; mixTenants is the
// paper's 10:1 co-location (always-on CPU hogs per replica core).
const (
	mixCycle   = "WCWMWCWMWF"
	mixTenants = 10
)

// primArm wires one arm's group over cl and returns it with a gCAS on every
// replica (the arms disagree on the execute-map type).
type primArm func(cl *Cluster) (Backend, func(off int, old, new uint64, done func(Result)) error)

func hyperLoopArm(cl *Cluster) (Backend, func(int, uint64, uint64, func(Result)) error) {
	g := NewGroup(cl, GroupConfig{})
	return g, func(off int, old, new uint64, done func(Result)) error {
		return g.GCAS(off, old, new, AllReplicas(3), done)
	}
}

func naiveArm(cfg NaiveConfig) primArm {
	return func(cl *Cluster) (Backend, func(int, uint64, uint64, func(Result)) error) {
		g := NewNaiveGroup(cl, cfg)
		return g, func(off int, old, new uint64, done func(Result)) error {
			return g.GCAS(off, old, new, ^uint64(0), done)
		}
	}
}

// primHotOp wires arm over a fresh client + 3-replica cluster, with tenants
// always-on hogs per core on every replica host, and returns a closure
// running the next op of cycle to completion.
func primHotOp(tb testing.TB, arm primArm, tenants int, cycle string) (eng *Engine, op func(), closeRig func()) {
	eng = NewEngine()
	cl := NewCluster(eng, ClusterConfig{Nodes: 4})
	var stops []func()
	for _, rep := range cl.Replicas() {
		if tenants > 0 {
			stops = append(stops, AddTenants(eng, rep.Host, tenants*rep.Host.Cores(),
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork()))
		}
	}
	g, gcas := arm(cl)
	cl.Client().StoreWrite(0, make([]byte, 2048))
	finished, run := runOne(tb, eng, "primitive")
	onDone := func(r Result) { finished(r.Err) }
	next, word := 0, uint64(0)
	start := func() {
		var err error
		switch cycle[next%len(cycle)] {
		case 'W':
			err = g.GWrite(0, 1024, true, onDone)
		case 'C':
			err = gcas(4096, word, word^1, onDone)
			word ^= 1
		case 'M':
			err = g.GMemcpy(1024, 0, 1024, true, onDone)
		case 'F':
			err = g.GFlush(onDone)
		}
		next++
		if err != nil {
			tb.Fatal(err)
		}
	}
	closeRig = func() {
		g.Close()
		for _, stop := range stops {
			stop()
		}
	}
	return eng, func() { run(start) }, closeRig
}

// TestNaiveAllocCeiling pins the host cost of the Naïve arm in both
// consumption modes: with pooled op and handler records and commands
// encoded in their ring slots, the co-located primitive mix allocates
// nothing per op once the pools are warm.
func TestNaiveAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     NaiveConfig
		ceiling float64
	}{
		{"Event", NaiveConfig{Mode: naive.Event}, 0},
		{"Polling, unpinned, co-located", NaiveConfig{Mode: naive.Polling}, 0},
	} {
		_, op, closeRig := primHotOp(t, naiveArm(c.cfg), mixTenants, mixCycle)
		for i := 0; i < 2000; i++ { // pools, queues and rings at size
			op()
		}
		if got := allocsPerOp(1000, op); got > c.ceiling {
			t.Errorf("Naive %s primitive mix allocates %v/op, ceiling %v", c.name, got, c.ceiling)
		} else {
			t.Logf("Naive %s primitive mix: %v allocs/op (ceiling %v)", c.name, got, c.ceiling)
		}
		closeRig()
	}
}

// TestPrimsMixAllocFree replays a seeded 50/20/20/10
// gWRITE/gCAS/gMEMCPY/gFLUSH stream on the HyperLoop arm at seeds 1–5 and
// counts one whole window per seed, so a buffer that first reaches its
// high-water mark late in one seed's stream (the replenisher's scratch, the
// NVM pre-image slab) shows as an allocation.
func TestPrimsMixAllocFree(t *testing.T) {
	const warm, window = 2000, 2000
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := make([]byte, warm+2*window) // allocsPerOp runs its window twice
		for i := range stream {
			switch k := r.Intn(10); {
			case k < 5:
				stream[i] = 'W'
			case k < 7:
				stream[i] = 'C'
			case k < 9:
				stream[i] = 'M'
			default:
				stream[i] = 'F'
			}
		}
		_, op, closeRig := primHotOp(t, hyperLoopArm, 0, string(stream))
		for i := 0; i < warm; i++ {
			op()
		}
		if got := allocsPerOp(window, op); got > 0 {
			t.Errorf("seed %d: HyperLoop primitive mix allocates %v/op, ceiling 0", seed, got)
		}
		closeRig()
	}
}

// TestEventBudgets pins the engine events one op fires (sim.Engine.Fired
// per op over a warm window). The counts are deterministic, so a host-side
// change that adds, drops or fuses a scheduled step shows here exactly;
// the ceilings are the datapath's current counts.
func TestEventBudgets(t *testing.T) {
	const ops = 1000
	for _, c := range []struct {
		name    string
		arm     primArm
		tenants int
		cycle   string
		ceiling float64
	}{
		{"HyperLoop durable 1 KiB gWRITE", hyperLoopArm, 0, "W", 54.869},
		{"Naive-Event durable 1 KiB gWRITE", naiveArm(NaiveConfig{Mode: naive.Event}), 0, "W", 38},
		{"HyperLoop primitive mix, co-located", hyperLoopArm, mixTenants, mixCycle, 49.86},
		{"Naive-Event primitive mix, co-located", naiveArm(NaiveConfig{Mode: naive.Event}), mixTenants, mixCycle, 64.459},
	} {
		eng, op, closeRig := primHotOp(t, c.arm, c.tenants, c.cycle)
		for i := 0; i < 2000; i++ {
			op()
		}
		before := eng.Fired()
		for i := 0; i < ops; i++ {
			op()
		}
		got := float64(eng.Fired()-before) / ops
		if got > c.ceiling {
			t.Errorf("%s fires %v events/op, budget %v", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %v events/op (budget %v)", c.name, got, c.ceiling)
		}
		closeRig()
	}
}

// BenchmarkGCASHot and BenchmarkGMemcpyHot measure simulator speed for the
// remaining primitives (engineering metrics).
func BenchmarkGCASHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		old, new := uint64(0), uint64(1)
		if i%2 == 1 {
			old, new = 1, 0
		}
		tb.Group.GCAS(0, old, new, AllReplicas(3), func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
}

func BenchmarkGMemcpyHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	tb.Client().StoreWrite(0, make([]byte, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		tb.Group.GMemcpy(1<<20, 0, 1024, true, func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
}

// BenchmarkPartitionedEngine measures the parallel simulation core: one
// 8-shard partitioned cell per iteration at full worker count, checked
// against a serial reference run whose wall-clock cost is reported alongside
// so the multi-core payoff shows up in benchmark output (engineering
// metric — the simulated results are byte-identical by construction).
func BenchmarkPartitionedEngine(b *testing.B) {
	run := func(workers int) experiments.PartitionedScalingResult {
		return experiments.RunPartitionedScaling(experiments.PartitionedScalingParams{
			Shards: 8, Workers: workers, Seed: 42, OpsPerShard: 50,
		})
	}
	serialStart := time.Now()
	ref := run(1)
	serialNs := float64(time.Since(serialStart).Nanoseconds())
	if !ref.Skew.Pass() {
		b.Fatal(ref.Skew.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := run(0)
		if r.Acked != ref.Acked || r.Lat != ref.Lat {
			b.Fatalf("parallel run diverged from serial reference:\n%+v\n%+v", r.Lat, ref.Lat)
		}
	}
	b.ReportMetric(serialNs, "serial-ns/op")
	b.ReportMetric(ref.TputKops, "sim-kops")
}
