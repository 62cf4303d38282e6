package main

import (
	"fmt"
	"math"

	"hyperloop/internal/check"
	"hyperloop/internal/load"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// served: the whole served request, open loop on the HyperLoop arm —
// Poisson arrivals from the 2^20 connection space → admission → batched
// dispatch → shard → kvstore → wal → chain → ack — with 128 B values (the
// small-message regime the other workloads skip). The nominal phase runs on
// the harness's pump (exact per-arrival latencies, ≥400 host-timed chunks,
// public counters); the rate ladder runs through load.Run itself.

const (
	servedChunks    = 400
	servedChunkOps  = 160                   // arrivals × scale; ~8 s measured, + ~4 s of ladder, on the reference box
	servedWarmOps   = 9000                  // arrivals × min(1, scale): the fixed-count set-up work
	servedKops      = 70.0                  // ≈0.8 × the ~85 kops knee of the rate ladder below
	servedSLO       = 500 * sim.Microsecond //
	servedValue     = 128                   //
	servedRungLen   = 200 * sim.Millisecond // × scale, per rung of the end-to-end ladder (stops at the knee)
	servedTraceRung = 20 * sim.Millisecond  // × scale, per rung of the traced ladder (all rungs)
	servedFusion    = 4
	servedDoorbell  = 200 * sim.Nanosecond
	servedOKFrac    = 0.99 // share of arrivals that must be acked within the SLO
)

var servedAdmission = load.AdmissionConfig{
	Enabled: true, QueueDepth: 8, MaxInflight: 16, DispatchBatch: 8, DispatchEvery: 2 * sim.Microsecond,
}

func servedServerConfig(seed int64) load.ServerConfig {
	return load.ServerConfig{
		Groups: 2, ShardsPerGroup: 1, HostsPerGroup: 3, Replicas: 3, RegionSize: 1 << 18,
		FusionDepth: servedFusion, DoorbellCost: servedDoorbell, Workers: 1, Seed: seed,
	}
}

// servedConfig is the same plane and admission settings as a load.Run call.
func servedConfig(seed int64, kops float64, horizon sim.Duration) load.Config {
	s := servedServerConfig(seed)
	return load.Config{
		System: "hyperloop", Groups: s.Groups, HostsPerGroup: s.HostsPerGroup, ShardsPerGroup: s.ShardsPerGroup,
		Replicas: s.Replicas, RegionSize: s.RegionSize, FusionDepth: s.FusionDepth, DoorbellCost: s.DoorbellCost,
		Workers: 1, Seed: seed,
		Clients: 1 << 20, Arrival: "poisson", OfferedLoad: kops * 1e3, ValueSize: servedValue,
		Duration: horizon, SLO: servedSLO, Admission: servedAdmission,
	}
}

func scaleDur(d sim.Duration, scale float64) sim.Duration {
	v := sim.Duration(math.Round(float64(d) * scale))
	if v < sim.Millisecond {
		v = sim.Millisecond
	}
	return v
}

// servedRig is an opened serving backend with the pump in front of it.
type servedRig struct {
	srv     load.Server
	p       *pump
	d       driver
	offered int
	seed    int64
}

// setupServed is the timed set-up: open the 2-group plane and pump a fixed
// number of warm-up arrivals through it at the nominal rate.
func setupServed(seed int64, scale float64) (*servedRig, error) {
	srv, err := load.OpenHyperLoop(servedServerConfig(seed))
	if err != nil {
		return nil, err
	}
	r := &servedRig{srv: srv, p: newPump(srv, servedAdmission), d: peDriver(srv.PE()), seed: seed}
	r.p.slo = servedSLO
	warm := servedWarmOps
	if scale < 1 {
		warm = scaled(warm, scale)
	}
	if err := r.pump(warm); err != nil {
		srv.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// pump offers n more arrivals (split across groups) and waits until every
// one has a verdict.
func (r *servedRig) pump(n int) error {
	groups := r.srv.Groups()
	per := (n + groups - 1) / groups
	r.offered += per * groups
	r.p.offer(r.seed+int64(r.offered), servedKops*1e3, per, servedValue)
	if !r.d.until(func() bool { return r.p.settled(r.offered) }) {
		return fmt.Errorf("arrivals did not settle")
	}
	return r.p.bad
}

// servedCounters is every public counter the served workload reads.
type servedCounters struct {
	fired, msgs, bytes uint64
	nic                rdma.Counters
	puts               uint64
	fusedB, fusedOps   uint64
	v                  load.Verdicts
}

func (r *servedRig) counters() servedCounters {
	c := servedCounters{fired: r.srv.PE().TotalFired(), v: r.p.verdicts()}
	c.fusedB, c.fusedOps = r.srv.FusionStats()
	for g := 0; g < r.srv.Groups(); g++ {
		cl := r.srv.Cluster(g)
		c.msgs += cl.Net.Delivered()
		for _, n := range cl.Nodes {
			c.bytes += cl.Net.BytesSent(n.NIC.Node())
			addNIC(&c.nic, n.NIC.Counters())
		}
		pl := r.srv.Plane(g)
		for s := 0; s < pl.Shards(); s++ {
			puts, _, _, _ := pl.Shard(s).DB().Stats()
			c.puts += puts
		}
	}
	return c
}

type measuredServed struct {
	lat           simLatency
	ct            *chunkTimer
	mem           memDelta
	simNs         sim.Duration
	before, after servedCounters
	arrivals      int
	good          int
	lost, refused int
}

func (r *servedRig) measure(chunks, chunkOps int) (measuredServed, error) {
	n := chunks * chunkOps
	p := r.p
	p.lats = make([]int64, 0, n)
	p.putLats = make([]int64, 0, n)
	m := measuredServed{ct: newChunkTimer(chunks), before: r.counters()}
	goodBefore, arrivalsBefore := p.good, p.arrivals
	p.onArrival = func() {
		if k := p.arrivals - arrivalsBefore; k%chunkOps == 0 && k <= n {
			m.ct.end(chunkOps)
		}
	}
	simStart := r.d.now()
	mm := markMem()
	m.ct.start()
	err := r.pump(n)
	m.mem = mm.since()
	p.onArrival = nil
	m.simNs = r.d.now().Sub(simStart)
	m.after = r.counters()
	if err != nil {
		return m, err
	}
	v, b := m.after.v, m.before.v
	m.arrivals = int(v.Arrivals - b.Arrivals)
	m.good = p.good - goodBefore
	m.lost = int(v.Failed - b.Failed) // unserved is settled by verify's cut-off
	m.refused = int(v.ShedQueueFull + v.ShedThrottled - b.ShedQueueFull - b.ShedThrottled)
	m.lat, err = summarize(p.lats)
	return m, err
}

// verify cuts the admission controllers off and checks the program's own
// accounting identity (every arrival in exactly one verdict bucket, nothing
// unserved or failed) and the partitioned engine's lookahead invariant.
func (r *servedRig) verify() error {
	for _, a := range r.p.adms {
		a.CutOff()
	}
	v := r.p.verdicts()
	if err := (load.Result{Verdicts: v}).CheckAccounting(); err != nil {
		return err
	}
	if v.Failed != 0 || v.Unserved != 0 || int(v.Arrivals) != r.offered || int(v.Acked) != r.p.acked {
		return fmt.Errorf("verdicts %+v: want 0 failed, 0 unserved, %d arrivals, %d acks", v, r.offered, r.p.acked)
	}
	if skew := check.PartitionSkew(r.srv.PE()); !skew.Pass() {
		return fmt.Errorf("partition skew: %v", skew.Err)
	}
	return nil
}

// ladderCall is one load.Run rung with the program's own output checks.
func ladderCall(cfg load.Config) (load.Result, error) {
	res := load.Run(cfg)
	if err := res.CheckAccounting(); err != nil {
		return res, err
	}
	if !res.Skew.Pass() {
		return res, fmt.Errorf("partition skew: %v", res.Skew.Err)
	}
	l := simLatency{min: float64(res.Lat.Min), p50: float64(res.Lat.P50), p99: float64(res.Lat.P99),
		p999: float64(res.P999), max: float64(res.Lat.Max), mean: float64(res.Lat.Mean)}
	return res, l.check()
}

// rateLadder offers the frozen rungs, lowest first, one load.Run each, and
// locates the highest rate at which ≥99% of arrivals are acked within the
// SLO with nothing failed or left unserved. The knee is interpolated
// linearly between the last rung that meets the limit and the first that
// misses it: a rung-quantized knee would jump 10 kops on one arrival's
// verdict. With stopAtKnee the rungs above the first miss are skipped (they
// cannot move the knee); p99us then holds only the rungs that ran.
func rateLadder(seed int64, horizon sim.Duration, stopAtKnee bool, rep *report) (maxKops float64, p99us []float64, err error) {
	var okFrac []float64
	var pass []bool
	for _, kops := range servedRungs {
		res, err := ladderCall(servedConfig(seed, float64(kops), horizon))
		if err != nil {
			return 0, nil, fmt.Errorf("rung %d kops: %w", kops, err)
		}
		good := math.Round(res.GoodputKops * horizon.Seconds() * 1e3)
		f := good / float64(res.Verdicts.Arrivals)
		ok := f >= servedOKFrac && res.Verdicts.Unserved == 0 && res.Verdicts.Failed == 0
		okFrac, pass = append(okFrac, f), append(pass, ok)
		p99us = append(p99us, float64(res.Lat.P99)/1e3)
		if stopAtKnee && !ok {
			break
		}
	}
	trail := ""
	for i, f := range okFrac {
		trail += fmt.Sprintf(" %d:%.4f", servedRungs[i], f)
	}
	rep.note("ladder", fmt.Sprintf("share of arrivals acked within %v, by offered kops:%s", sim.Duration(servedSLO), trail))
	return kneeOf(servedRungs, okFrac, pass), p99us, nil
}

// kneeOf returns the interpolated highest passing rate given the rungs that
// ran: 0 if even the lowest misses the limit, the top rung if every rung
// meets it (the ladder saturates and must be extended).
func kneeOf(rungs []int, okFrac []float64, pass []bool) float64 {
	last := -1
	for i := range pass {
		if !pass[i] {
			break
		}
		last = i
	}
	switch {
	case last < 0:
		return 0
	case last == len(pass)-1:
		return float64(rungs[last])
	}
	lo, hi := float64(rungs[last]), float64(rungs[last+1])
	if okFrac[last+1] >= servedOKFrac { // missed on unserved/failed alone
		return lo
	}
	return lo + (hi-lo)*(okFrac[last]-servedOKFrac)/(okFrac[last]-okFrac[last+1])
}

func servedDigest(seed int64, scale float64) string {
	d := newDigest()
	d.str("served/hyperloop/poisson")
	d.u64(uint64(seed), servedChunks, uint64(scaled(servedChunkOps, scale)), uint64(servedKops*1e3),
		servedValue, uint64(scaleDur(servedRungLen, scale)))
	for _, r := range servedRungs {
		d.u64(uint64(r))
	}
	return d.sum()
}

func runServed(seed int64, scale float64, rep *report) error {
	rep.note("input_digest", servedDigest(seed, scale)+
		" (seeds and rates: arrivals, connection ids and values are drawn by load's own generators)")
	chunkOps := scaled(servedChunkOps, scale)
	var rig *servedRig
	setup, err := timeSetup(func() {
		if rig != nil {
			rig.srv.Close()
			rig = nil
		}
	}, func() error {
		var err error
		rig, err = setupServed(seed, scale)
		return err
	})
	if err != nil {
		return err
	}
	defer rig.srv.Close()

	m, err := rig.measure(servedChunks, chunkOps)
	rep.attempted, rep.failed = m.arrivals, m.lost
	if err != nil {
		return err
	}
	if err := rig.verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	maxKops, _, err := rateLadder(seed, scaleDur(servedRungLen, scale), true, rep)
	if err != nil {
		return err
	}
	if lo, hi := float64(servedRungs[0]), float64(servedRungs[len(servedRungs)-1]); maxKops < lo || maxKops >= hi {
		rep.note("ladder", fmt.Sprintf("knee %.1f kops is not inside the ladder %v: extend the rungs", maxKops, servedRungs))
	}
	rep.note("ops", fmt.Sprintf("%d arrivals in %d chunks of %d at %.0f kops offered, open loop, 2 groups; %d refused at admission, %d failed or unserved; SLO %v; generator lateness 0 (arrivals fire at their due time on the modeled clock)",
		m.arrivals, servedChunks, chunkOps, servedKops, m.refused, m.lost, sim.Duration(servedSLO)))
	rep.note("sim_samples", fmt.Sprintf("%d acks (%d beyond p99.9)", m.lat.n, m.lat.beyondP999Samples))
	goodput := float64(m.good) / m.simNs.Seconds() / 1e3
	rep.endToEnd(m.lat, goodput, maxKops, m.ct, m.mem, m.arrivals, setup)
	return nil
}

func traceServed(seed int64, scale float64, rep *report) error {
	rep.note("input_digest", servedDigest(seed, scale))
	chunks, chunkOps := servedChunks/5, scaled(servedChunkOps, scale)

	var events uint64
	pass := func(traced bool) (*servedRig, measuredServed, error) {
		rig, err := setupServed(seed, scale)
		if err != nil {
			return nil, measuredServed{}, err
		}
		defer rig.srv.Close()
		if traced {
			for g := 0; g < rig.srv.Groups(); g++ {
				for _, n := range rig.srv.Cluster(g).Nodes {
					n.NIC.SetTracer(func(rdma.TraceEvent) { events++ })
				}
			}
		}
		m, err := rig.measure(chunks, chunkOps)
		if err != nil {
			return rig, m, err
		}
		return rig, m, rig.verify()
	}
	plainRig, plain, err := pass(false)
	rep.attempted, rep.failed, rep.refused = plain.arrivals, plain.lost, plain.refused
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	tracedRig, traced, err := pass(true)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if !equalInt64(plainRig.p.lats, tracedRig.p.lats) {
		return fmt.Errorf("tracing moved a modeled latency")
	}

	ops := float64(plain.arrivals)
	b, a := plain.before, plain.after
	acked := float64(a.v.Acked - b.v.Acked)
	rep.trafficLayer(a.fired-b.fired, a.msgs-b.msgs, a.bytes-b.bytes, acked*servedValue, plain.ct.p10(), ops)
	nic := subNIC(a.nic, b.nic)
	rep.nicLayer(nic, ops)
	fusedB, fusedOps := float64(a.fusedB-b.fusedB), float64(a.fusedOps-b.fusedOps)
	rep.layer("core.fused_ops_per_batch", "count", ratio(fusedOps, fusedB))
	// kvstore logs exactly one record per Put and executes each once; its
	// private log has no public counter, so the put count stands for both.
	rep.layer("wal.appends_per_op", "count", float64(a.puts-b.puts)/ops)
	rep.layer("wal.executes_per_op", "count", float64(a.puts-b.puts)/ops)
	put, err := summarize(plainRig.p.putLats)
	if err != nil {
		return err
	}
	rep.layer("kvstore.sim_put_p99_us", "us", put.p99/1e3)
	rep.layer("load.shed_frac", "ratio", float64(plain.refused)/ops)
	rep.layer("load.unserved_frac", "ratio", ratio(float64(a.v.Unserved-b.v.Unserved), float64(a.v.Admitted-b.v.Admitted)))
	peak := 0
	for _, adm := range plainRig.p.adms {
		if q := adm.QueuePeak(); q > peak {
			peak = q
		}
	}
	rep.layer("load.queue_peak", "count", float64(peak))
	rep.layer("load.doorbells_per_op", "count", ratio(float64(nic.Doorbells), acked))
	rep.layer("load.fused_ops_per_batch", "count", ratio(fusedOps, fusedB))
	rep.layer("load.generator_late_us", "us", 0) // arrivals fire exactly at their due time on the modeled clock
	rep.runtimeLayer(plain.ct, plain.mem, plain.arrivals)
	rep.layer("trace.events_per_op", "count", float64(events)/ops)
	rep.layer("trace.overhead_frac", "ratio", traced.ct.p10()/plain.ct.p10()-1)

	_, p99us, err := rateLadder(seed, scaleDur(servedTraceRung, scale), false, rep)
	if err != nil {
		return err
	}
	for i, r := range servedRungs {
		rep.layer(fmt.Sprintf("load.sim_p99_us_at_%d", r), "us", p99us[i])
	}
	return nil
}
