package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

// prims and naive_coloc: one closed-loop client, one op outstanding, the
// same pre-generated primitive stream against a 3-replica core.Group
// (prims) or naive.Group in event mode with 10 always-on tenants per core on
// every replica host (naive_coloc).

const (
	primChunks   = 500
	primChunkOps = 600   // × scale; ~10 s measured on the reference box
	primWarmOps  = 40000 // × min(1, scale); the fixed-count set-up work (≥1 s on both arms)
	primReplicas = 3
	primTenants  = 10 // per core, on every replica host (naive_coloc, HL control)
	primStore    = 1 << 20
)

// primRig is one arm's cluster, group and closed-loop driver state.
type primRig struct {
	eng   *sim.Engine
	cl    *cluster.Cluster
	hl    *core.Group
	nv    *naive.Group
	stops []func()
	in    primInputs

	// Closed-loop state: exactly one op outstanding.
	next, target int
	cur          *primOp
	start        sim.Time
	lat          []int64 // modeled latency per op (ns), nil during warm-up
	shadow       [primWords]uint64
	scratch      [primIO]byte
	failed       int
	firstErr     error

	// Bridged NIC trace (traced runs only).
	bridge   *span.Bridge
	stages   []span.Stage
	stageSum sim.Duration
	e2eSum   sim.Duration
	events   uint64

	hlDone func(core.Result)
	nvDone func(naive.Result)
}

// newPrimRig builds the topology: client + 3 replicas, a 1 MiB store
// window, and the selected arm. tenants adds the co-located CPU hogs to
// every replica host (the client is the dedicated measurement machine, as
// in the paper's §6.1).
func newPrimRig(seed int64, naiveArm, tenants bool, in primInputs) *primRig {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     primReplicas + 1,
		StoreSize: primStore,
		Host:      cpusched.Config{Seed: seed},
		Seed:      seed,
	})
	r := &primRig{eng: eng, cl: cl, in: in}
	if tenants {
		for _, rep := range cl.Replicas() {
			r.stops = append(r.stops, cpusched.AddTenants(eng, rep.Host, primTenants*rep.Host.Cores(),
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork()))
		}
	}
	if naiveArm {
		r.nv = naive.New(cl, naive.Config{Mode: naive.Event})
	} else {
		r.hl = core.New(cl, core.Config{})
	}
	r.hlDone = func(res core.Result) { r.complete(res.CASOld, res.Err) }
	r.nvDone = func(res naive.Result) { r.complete(res.CASOld, res.Err) }
	return r
}

func (r *primRig) close() {
	if r.hl != nil {
		r.hl.Close()
	} else {
		r.nv.Close()
	}
	for _, s := range r.stops {
		s()
	}
}

func (r *primRig) groupFailed() error {
	if r.hl != nil {
		return r.hl.Failed()
	}
	return r.nv.Failed()
}

// trace attaches the NIC tracer bridge to every node (the only visibility
// into the offloaded datapath; installed from outside via SetTracer).
func (r *primRig) trace() {
	r.bridge = span.NewBridge(0)
	for i, n := range r.cl.Nodes {
		role := fmt.Sprintf("replica%d", i-1)
		if i == 0 {
			role = "client"
		}
		n.NIC.SetTracer(r.bridge.Tracer(role))
	}
}

// issue posts op r.next. The client's own window is the model the replicas
// must end up byte-equal to: it takes the write payload, the local mirror
// of a gMEMCPY, and the new word of a winning gCAS.
func (r *primRig) issue() {
	o := &r.in.ops[r.next]
	r.cur = o
	if r.bridge != nil {
		r.bridge.Reset()
	}
	r.start = r.eng.Now()
	client := r.cl.Client()
	var err error
	switch o.kind {
	case opWrite:
		copy(r.scratch[:], r.in.blocks[o.block])
		binary.LittleEndian.PutUint64(r.scratch[:], uint64(r.next))
		off := int(o.slot) * primIO
		client.StoreWrite(off, r.scratch[:])
		if r.hl != nil {
			err = r.hl.GWrite(off, primIO, true, r.hlDone)
		} else {
			err = r.nv.GWrite(off, primIO, true, r.nvDone)
		}
	case opCAS:
		old := o.casConst
		if o.casHit {
			old = r.shadow[o.word]
		}
		off := primCAS + 8*int(o.word)
		if r.hl != nil {
			err = r.hl.GCAS(off, old, o.casNew, core.AllReplicas(primReplicas), r.hlDone)
		} else {
			err = r.nv.GCAS(off, old, o.casNew, uint64(core.AllReplicas(primReplicas)), r.nvDone)
		}
	case opMemcpy:
		dst, src := int(o.slot)*primIO, int(o.src)*primIO
		client.Store.Backing().ReadAt(src, r.scratch[:])
		client.StoreWrite(dst, r.scratch[:])
		if r.hl != nil {
			err = r.hl.GMemcpy(dst, src, primIO, true, r.hlDone)
		} else {
			err = r.nv.GMemcpy(dst, src, primIO, true, r.nvDone)
		}
	case opFlush:
		if r.hl != nil {
			err = r.hl.GFlush(r.hlDone)
		} else {
			err = r.nv.GFlush(r.nvDone)
		}
	}
	if err != nil {
		r.complete(nil, err)
	}
}

// complete checks the op's result against the shadow model, records its
// modeled latency, and issues the next op of the chunk.
func (r *primRig) complete(casOld []uint64, err error) {
	o := r.cur
	end := r.eng.Now()
	switch {
	case err != nil:
		r.fail(fmt.Errorf("op %d: %w", r.next, err))
	case o.kind == opCAS:
		want := r.shadow[o.word]
		if len(casOld) != primReplicas {
			r.fail(fmt.Errorf("op %d: gCAS result map has %d entries", r.next, len(casOld)))
		}
		for i, got := range casOld {
			if got != want {
				r.fail(fmt.Errorf("op %d: gCAS replica %d returned %#x, shadow %#x", r.next, i, got, want))
				break
			}
		}
		old := o.casConst
		if o.casHit {
			old = want
		}
		if old == want {
			r.shadow[o.word] = o.casNew
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], o.casNew)
			r.cl.Client().StoreWrite(primCAS+8*int(o.word), w[:])
		}
	}
	if r.lat != nil {
		r.lat[r.next] = int64(end.Sub(r.start))
	}
	if r.bridge != nil && err == nil {
		ev := r.bridge.Events()
		r.events += uint64(len(ev))
		st := span.Decompose(ev, r.start, end, classifyStage)
		for _, s := range st {
			r.stageSum += s.Dur
		}
		r.e2eSum += end.Sub(r.start)
		r.stages = span.MergeStages(r.stages, st)
	}
	r.next++
	if r.next < r.target {
		r.issue()
	}
}

func (r *primRig) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// run executes ops [r.next, r.next+n) closed loop and returns once all have
// completed (or the group failed).
func (r *primRig) run(n int) error {
	r.target = r.next + n
	if r.target > len(r.in.ops) {
		return fmt.Errorf("op stream exhausted: want %d, have %d", r.target, len(r.in.ops))
	}
	r.issue()
	deadline := r.eng.Now().Add(sim.Duration(n+10) * 100 * sim.Millisecond)
	r.eng.RunUntil(func() bool { return r.next >= r.target || r.groupFailed() != nil }, deadline)
	if err := r.groupFailed(); err != nil {
		return fmt.Errorf("group failed: %w", err)
	}
	if r.next < r.target {
		return fmt.Errorf("only %d/%d ops completed by the modeled deadline", r.next, r.target)
	}
	return nil
}

// verify drains with a terminal gFLUSH and checks every replica's live and
// durable image of the window against the client's.
func (r *primRig) verify() error {
	if r.firstErr != nil {
		return r.firstErr
	}
	flushed := false
	var ferr error
	done := func(err error) { flushed, ferr = true, err }
	var err error
	if r.hl != nil {
		err = r.hl.GFlush(func(res core.Result) { done(res.Err) })
	} else {
		err = r.nv.GFlush(func(res naive.Result) { done(res.Err) })
	}
	if err != nil {
		return fmt.Errorf("terminal gFLUSH: %w", err)
	}
	r.eng.RunUntil(func() bool { return flushed }, r.eng.Now().Add(sim.Second))
	if !flushed || ferr != nil {
		return fmt.Errorf("terminal gFLUSH: done=%v err=%v", flushed, ferr)
	}
	want := r.cl.Client().StoreBytes(0, primWindow)
	for i, rep := range r.cl.Replicas() {
		if got := rep.StoreBytes(0, primWindow); !bytes.Equal(got, want) {
			return fmt.Errorf("replica %d live image diverges from the client window at byte %d", i, firstDiff(got, want))
		}
		b := rep.Store.Backing().(*rdma.NVMBacking)
		if got := b.Device().DurableRead(b.Base(), primWindow); !bytes.Equal(got, want) {
			return fmt.Errorf("replica %d durable image diverges from the client window at byte %d", i, firstDiff(got, want))
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// primCounters snapshots every public counter the prims family reads.
type primCounters struct {
	fired     uint64
	msgs      uint64
	bytes     uint64
	nic       rdma.Counters
	handlers  uint64
	fusedB    uint64
	fusedOps  uint64
	ctxsw     uint64
	queueWait sim.Duration
	util      float64
}

func (r *primRig) counters() primCounters {
	c := primCounters{fired: r.eng.Fired(), msgs: r.cl.Net.Delivered()}
	for _, n := range r.cl.Nodes {
		c.bytes += r.cl.Net.BytesSent(n.NIC.Node())
		addNIC(&c.nic, n.NIC.Counters())
	}
	for _, rep := range r.cl.Replicas() {
		c.ctxsw += rep.Host.ContextSwitches()
		c.queueWait += rep.Host.MeanQueueWait()
		c.util += rep.Host.Utilization()
	}
	c.queueWait /= primReplicas
	c.util /= primReplicas
	if r.hl != nil {
		c.fusedB, c.fusedOps = r.hl.FusionStats()
	} else {
		c.handlers = r.nv.HandlerActivations()
	}
	return c
}

func addNIC(dst *rdma.Counters, c rdma.Counters) {
	dst.WQEsExecuted += c.WQEsExecuted
	dst.CacheFlushes += c.CacheFlushes
	dst.RNRs += c.RNRs
	dst.Doorbells += c.Doorbells
	dst.ProgBranches += c.ProgBranches
}

// primPlan sizes one prims-family run.
type primPlan struct {
	naiveArm bool
	chunks   int
	chunkOps int
	warm     int
}

func planPrims(naiveArm bool, scale float64) primPlan {
	p := primPlan{naiveArm: naiveArm, chunks: primChunks, chunkOps: primChunkOps, warm: primWarmOps}
	p.chunkOps = scaled(p.chunkOps, scale)
	if scale < 1 {
		p.warm = scaled(p.warm, scale)
	}
	return p
}

func (p primPlan) ops() int { return p.chunks * p.chunkOps }

// setupPrims is the timed set-up: build the topology (tenants included on
// the naive arm), then a fixed-count warm-up over the stream's prefix so
// rings, caches and lazily grown slabs are in steady state.
func setupPrims(seed int64, p primPlan, in primInputs) (*primRig, error) {
	r := newPrimRig(seed, p.naiveArm, p.naiveArm, in)
	if err := r.run(p.warm); err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// measuredPrims is one chunked closed-loop pass over ops [warm, warm+n).
type measuredPrims struct {
	lat   simLatency
	ct    *chunkTimer
	mem   memDelta
	simNs sim.Duration
	delta primCounters
	rig   *primRig
}

func measurePrims(r *primRig, p primPlan, chunks int) (measuredPrims, error) {
	n := chunks * p.chunkOps
	r.lat = make([]int64, len(r.in.ops))
	for _, rep := range r.cl.Replicas() {
		rep.Host.ResetAccounting()
	}
	before := r.counters()
	simStart := r.eng.Now()
	ct := newChunkTimer(chunks)
	mm := markMem()
	for c := 0; c < chunks; c++ {
		ct.start()
		if err := r.run(p.chunkOps); err != nil {
			return measuredPrims{}, err
		}
		ct.end(p.chunkOps)
	}
	m := measuredPrims{ct: ct, mem: mm.since(), simNs: r.eng.Now().Sub(simStart), rig: r}
	after := r.counters()
	m.delta = primCounters{
		fired: after.fired - before.fired, msgs: after.msgs - before.msgs, bytes: after.bytes - before.bytes,
		handlers: after.handlers - before.handlers,
		fusedB:   after.fusedB - before.fusedB, fusedOps: after.fusedOps - before.fusedOps,
		ctxsw: after.ctxsw, queueWait: after.queueWait, util: after.util,
	}
	m.delta.nic = subNIC(after.nic, before.nic)
	var err error
	m.lat, err = summarize(r.lat[p.warm : p.warm+n])
	return m, err
}

// runPrims is the untraced end-to-end run of prims or naive_coloc.
func runPrims(name string, seed int64, scale float64, rep *report) error {
	p := planPrims(name == "naive_coloc", scale)
	in := genPrimOps(seed, p.warm+p.ops())
	rep.note("input_digest", in.digest)
	rep.note("ops", fmt.Sprintf("%d measured in %d chunks of %d after a %d-op warm-up; closed loop, 1 client, 1 outstanding",
		p.ops(), p.chunks, p.chunkOps, p.warm))

	var rig *primRig
	setup, err := timeSetup(func() {
		if rig != nil {
			rig.close()
			rig = nil
		}
	}, func() error {
		var err error
		rig, err = setupPrims(seed, p, in)
		return err
	})
	if err != nil {
		return err
	}
	defer rig.close()

	m, err := measurePrims(rig, p, p.chunks)
	rep.attempted, rep.failed = p.ops(), rig.failed
	if err != nil {
		return err
	}
	if err := rig.verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	rep.note("sim_samples", fmt.Sprintf("%d (%d beyond p99.9)", m.lat.n, m.lat.beyondP999Samples))
	goodput := float64(p.ops()-rig.failed) / m.simNs.Seconds() / 1e3
	rep.endToEnd(m.lat, goodput, goodput, m.ct, m.mem, p.ops(), setup)
	return nil
}

// tracePrims is the per-layer run: an untraced and a traced pass at one
// fifth of the op count on fresh rigs (their modeled latencies must be
// identical), the public counters, the bridged stage table, and — on prims —
// the layer ladder.
func tracePrims(name string, seed int64, scale float64, rep *report) error {
	p := planPrims(name == "naive_coloc", scale)
	in := genPrimOps(seed, p.warm+p.ops())
	rep.note("input_digest", in.digest)
	chunks := p.chunks / 5
	n := chunks * p.chunkOps
	rep.attempted = n

	pass := func(traced bool) (measuredPrims, error) {
		rig, err := setupPrims(seed, p, in)
		if err != nil {
			return measuredPrims{}, err
		}
		defer rig.close()
		if traced {
			rig.trace()
		}
		m, err := measurePrims(rig, p, chunks)
		rep.failed += rig.failed
		if err != nil {
			return m, err
		}
		return m, rig.verify()
	}
	plain, err := pass(false)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	traced, err := pass(true)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	for i := p.warm; i < p.warm+n; i++ {
		if plain.rig.lat[i] != traced.rig.lat[i] {
			return fmt.Errorf("tracing moved a modeled latency: op %d %dns untraced, %dns traced",
				i, plain.rig.lat[i], traced.rig.lat[i])
		}
	}
	tr := traced.rig
	if tr.stageSum != tr.e2eSum {
		return fmt.Errorf("stage sums %v != modeled end-to-end %v", tr.stageSum, tr.e2eSum)
	}

	ops := float64(n)
	d := plain.delta
	userBytes := 0.0
	for _, o := range in.ops[p.warm : p.warm+n] {
		if o.kind == opWrite || o.kind == opMemcpy {
			userBytes += primIO
		}
	}
	rep.trafficLayer(d.fired, d.msgs, d.bytes, userBytes, plain.ct.p10(), ops)
	rep.nicLayer(d.nic, ops)
	rep.layer("core.fused_ops_per_batch", "count", ratio(float64(d.fusedOps), float64(d.fusedB)))
	rep.layer("naive.handler_activations_per_op", "count", float64(d.handlers)/ops)
	rep.layer("cpusched.ctxsw_per_op", "count", float64(d.ctxsw)/ops)
	rep.layer("cpusched.mean_queue_wait_us", "us", float64(d.queueWait)/1e3)
	rep.layer("cpusched.replica_util", "ratio", d.util)
	rep.runtimeLayer(plain.ct, plain.mem, n)

	for _, s := range tr.stages {
		rep.layer("stage."+s.Name+"_us", "us", float64(s.Dur)/ops/1e3)
	}
	rep.layer("stage.total_us", "us", float64(tr.e2eSum)/ops/1e3)
	rep.layer("trace.events_per_op", "count", float64(tr.events)/ops)
	rep.layer("trace.overhead_frac", "ratio", traced.ct.p10()/plain.ct.p10()-1)

	if name == "naive_coloc" {
		// The paper's headline ratio: the same stream's prefix through
		// HyperLoop under the same tenants and seed.
		ctl := newPrimRig(seed, false, true, in)
		defer ctl.close()
		k := scaled(10000, scale)
		if k > len(in.ops) {
			k = len(in.ops)
		}
		ctl.lat = make([]int64, len(in.ops))
		if err := ctl.run(k); err != nil {
			return fmt.Errorf("HyperLoop control pass: %w", err)
		}
		hl, err := summarize(ctl.lat[:k])
		if err != nil {
			return err
		}
		rep.layer("naive.p99_over_hl_p99", "ratio", plain.lat.p99/hl.p99)
		return nil
	}
	start := time.Now()
	if err := runLadder(seed, scale, rep); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	rep.note("ladder_wall_s", fmt.Sprintf("%.2f", time.Since(start).Seconds()))
	return nil
}

// classifyStage names the slice between two adjacent NIC trace events — the
// classifier of experiments.RunStageBreakdown, copied here because it is
// unexported there and this PR may not touch the program. The gap ending at
// an event is attributed to whatever that event completes: an rx ends a
// wire transit, a wait/prog/chained exec ends NIC forwarding, and a replica
// exec whose predecessor was an rx ends a host-CPU excursion (only the
// naive datapath has those).
func classifyStage(prev, next *span.RoleEvent) string {
	if next == nil {
		return "ack-deliver"
	}
	if prev == nil {
		return "client-issue"
	}
	switch next.Kind {
	case "stall":
		return "nic-stall"
	case "rx":
		return "network"
	case "wait", "prog":
		return "nic-forward"
	case "exec":
		if next.Role == "client" {
			if prev.Role == "client" && prev.Kind == "rx" {
				return "host-cpu"
			}
			return "client-post"
		}
		if prev.Role == next.Role && (prev.Kind == "wait" || prev.Kind == "exec" || prev.Kind == "prog") {
			return "nic-forward"
		}
		if prev.Kind == "rx" {
			return "host-cpu"
		}
		return "nic-forward"
	}
	return "other"
}
