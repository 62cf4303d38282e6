package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/load"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// The layer ladder decomposes the op prims measures — one durable 1 KiB
// replicated write on a 3-replica cluster — by driving it at each successive
// public boundary of the stack, bottom up, from outside the program. Each
// rung reports the host cost (chunk-p10 wall ns, allocs) and the modeled
// latency of one call; a layer's self cost is its rung minus the rung below.

const (
	ladderChunks   = 40
	ladderCalls    = 20000 // × scale, per rung
	ladderWarm     = 2000  // × min(1, scale)
	ladderKeys     = 64
	ladderRegion   = 1 << 20
	ladderLoadKops = 12.0 // ≈0.3 × one group's ~40 kops put+commit capacity at 1 KiB
)

// rung is one measured boundary.
type rung struct {
	layer  string
	wallNs float64 // p10 over chunks of chunk wall ÷ chunk calls
	allocs float64 // Mallocs delta ÷ calls
	simNs  float64 // mean modeled latency of a call, issue → ack
}

// selfCosts turns cumulative rung values into per-layer self costs against
// the running maximum of the rungs below: a rung that measures under the
// one beneath it (a difference below the noise floor, or an ack that
// genuinely comes earlier) gets self cost 0 and the next layer is charged
// from the highest rung so far. Self costs are therefore non-negative and
// sum to the highest rung — the top one whenever the ladder is monotone.
func selfCosts(cum []float64) []float64 {
	self := make([]float64, len(cum))
	env := 0.0
	for i, v := range cum {
		if v > env {
			self[i] = v - env
			env = v
		}
	}
	return self
}

// driver advances a simulation until a predicate holds: a plain engine, or
// the partitioned engine the shard and load rungs sit on.
type driver struct {
	now   func() sim.Time
	until func(pred func() bool) bool
}

func engineDriver(eng *sim.Engine) driver {
	return driver{now: eng.Now, until: func(pred func() bool) bool {
		return eng.RunUntil(pred, eng.Now().Add(60*sim.Second))
	}}
}

func peDriver(pe *sim.PartitionedEngine) driver {
	now := func() sim.Time {
		var t sim.Time
		for g := 0; g < pe.Partitions(); g++ {
			if n := pe.Partition(g).Now(); n > t {
				t = n
			}
		}
		return t
	}
	return driver{now: now, until: func(pred func() bool) bool {
		for limit := now().Add(60 * sim.Second); !pred(); {
			if now() >= limit {
				return false
			}
			pe.Run(now().Add(500 * sim.Microsecond))
		}
		return true
	}}
}

// closedLoop performs n calls one at a time; issue must invoke done exactly
// once, at the call's ack. It returns the summed modeled latency.
func closedLoop(d driver, n int, issue func(done func())) (sim.Duration, error) {
	var lat sim.Duration
	var start sim.Time
	count := 0
	var done func()
	next := func() {
		start = d.now()
		issue(done)
	}
	done = func() {
		lat += d.now().Sub(start)
		count++
		if count < n {
			next()
		}
	}
	next()
	if !d.until(func() bool { return count >= n }) {
		return lat, fmt.Errorf("only %d/%d calls completed", count, n)
	}
	return lat, nil
}

// measureRung warms a rung up, then times ladderChunks chunks of calls.
// batch(n) performs n calls and returns their summed modeled latency.
func measureRung(layer string, scale float64, batch func(n int) (sim.Duration, error)) (rung, error) {
	warm := ladderWarm
	if scale < 1 {
		warm = scaled(warm, scale)
	}
	if _, err := batch(warm); err != nil {
		return rung{}, fmt.Errorf("%s rung warm-up: %w", layer, err)
	}
	per := scaled(ladderCalls, scale) / ladderChunks
	if per < 1 {
		per = 1
	}
	ct := newChunkTimer(ladderChunks)
	var sum sim.Duration
	mm := markMem()
	for c := 0; c < ladderChunks; c++ {
		ct.start()
		lat, err := batch(per)
		if err != nil {
			return rung{}, fmt.Errorf("%s rung: %w", layer, err)
		}
		ct.end(per)
		sum += lat
	}
	calls := float64(per * ladderChunks)
	return rung{layer: layer, wallNs: ct.p10(), allocs: float64(mm.since().mallocs) / calls,
		simNs: float64(sum) / calls}, nil
}

func rungSim(scale float64) (rung, error) {
	eng := sim.NewEngine()
	noop := func() {}
	return measureRung("sim", scale, func(n int) (sim.Duration, error) {
		for i := 0; i < n; i++ {
			eng.Schedule(0, noop)
			eng.Step()
		}
		return 0, nil
	})
}

func rungFabric(seed int64, scale float64, size int) (rung, error) {
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{}, sim.NewRand(seed))
	var arrived func()
	a := net.Attach(func(fabric.Message) {})
	b := net.Attach(func(fabric.Message) { arrived() })
	d := engineDriver(eng)
	return measureRung("fabric", scale, func(n int) (sim.Duration, error) {
		return closedLoop(d, n, func(done func()) {
			arrived = done
			net.Send(fabric.Message{From: a, To: b, Size: size})
		})
	})
}

// ackRung measures a rung whose call is "post, then wait for one ack":
// post starts a call and arranges for ack(err) at its completion.
func ackRung(layer string, scale float64, eng *sim.Engine, post func(ack func(error)) error) (rung, error) {
	d := engineDriver(eng)
	var bad error
	return measureRung(layer, scale, func(n int) (sim.Duration, error) {
		// One ack closure per batch, not per call: the harness must not
		// add allocations to the rung it measures.
		var done func()
		ack := func(err error) {
			if err != nil && bad == nil {
				bad = err
			}
			done()
		}
		lat, err := closedLoop(d, n, func(dn func()) {
			done = dn
			if err := post(ack); err != nil {
				ack(err)
			}
		})
		if err == nil {
			err = bad
		}
		return lat, err
	})
}

func rungRDMA(seed int64, scale float64) (rung, error) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 2, StoreSize: primStore, Seed: seed})
	src, dst := cl.Nodes[0], cl.Nodes[1]
	qp, _ := cluster.ConnectPair(src, dst, 64, 64)
	qp.SendCQ().SetAutoDrain(true)
	var cqe func(error)
	qp.SendCQ().SetCallback(func(e rdma.CQE) {
		if e.Status != rdma.StatusSuccess {
			cqe(fmt.Errorf("WRITE completed with %v", e.Status))
			return
		}
		cqe(nil)
	})
	w := rdma.WQE{Opcode: rdma.OpWrite, Signaled: true, RKey: dst.Store.RKey(),
		SGEs: []rdma.SGE{{LKey: src.Store.LKey(), Length: primIO}}}
	return ackRung("rdma", scale, eng, func(ack func(error)) error {
		cqe = ack
		_, err := qp.PostSend(w)
		return err
	})
}

// groupRig is a client + 3 replicas, the base of the core, naive, wal and
// kvstore rungs.
func groupRig(seed int64, storeSize int) (*sim.Engine, *cluster.Cluster) {
	eng := sim.NewEngine()
	return eng, cluster.New(eng, cluster.Config{Nodes: primReplicas + 1, StoreSize: storeSize, Seed: seed})
}

func rungCore(seed int64, scale float64) (rung, error) {
	eng, cl := groupRig(seed, primStore)
	g := core.New(cl, core.Config{})
	defer g.Close()
	var ack func(error)
	onDone := func(res core.Result) { ack(res.Err) }
	return ackRung("core", scale, eng, func(a func(error)) error {
		ack = a
		return g.GWrite(0, primIO, true, onDone)
	})
}

func rungNaive(seed int64, scale float64) (rung, error) {
	eng, cl := groupRig(seed, primStore)
	g := naive.New(cl, naive.Config{Mode: naive.Event})
	defer g.Close()
	var ack func(error)
	onDone := func(res naive.Result) { ack(res.Err) }
	return ackRung("naive", scale, eng, func(a func(error)) error {
		ack = a
		return g.GWrite(0, primIO, true, onDone)
	})
}

func ladderKey(i int) string { return fmt.Sprintf("lad/%04d", i%ladderKeys) }

// slotImage is the size of the record entry kvstore logs for a 1 KiB value
// under a ladder key (slot header + key + value capacity), so the wal rung
// appends exactly what the kvstore rung makes it append.
var slotImage = 16 + len(ladderKey(0)) + primIO

// rungWAL appends one slot-image-sized entry, waits for the replication ack
// (the modeled latency), then commits it with ExecuteAndAdvance (host work
// every durable put causes, off the ack path).
func rungWAL(seed int64, scale float64) (rung, error) {
	eng, cl := groupRig(seed, 2*ladderRegion)
	g := core.New(cl, core.Config{})
	defer g.Close()
	d := engineDriver(eng)
	var log *wal.Log
	opened := false
	var bad error
	log = wal.New(wal.NodeStore{N: cl.Client()}, wal.CoreReplicator{G: g}, 0, ladderRegion/4,
		func(err error) { opened, bad = true, err })
	if !d.until(func() bool { return opened }) || bad != nil {
		return rung{}, fmt.Errorf("wal rung: open: %v", bad)
	}
	entry := []wal.Entry{{Data: make([]byte, slotImage)}}
	i := 0
	return measureRung("wal", scale, func(n int) (sim.Duration, error) {
		var acked sim.Duration
		_, err := closedLoop(d, n, func(done func()) {
			start := eng.Now()
			entry[0].Offset = ladderRegion + (i%ladderKeys)*2048
			i++
			err := log.Append(entry, func(err error) {
				acked += eng.Now().Sub(start)
				if err == nil {
					err = log.ExecuteAndAdvance(func(err error) {
						if err != nil && bad == nil {
							bad = err
						}
						done()
					})
				}
				if err != nil && bad == nil {
					bad = err
					done()
				}
			})
			if err != nil && bad == nil {
				bad = err
				done()
			}
		})
		if err == nil {
			err = bad
		}
		return acked, err
	})
}

// putRung measures a rung whose call is a 1 KiB put to its ack. A put the
// full WAL ring refuses (reported through done) waits for the executor to
// drain — the ring frees at commit, not at ack — and is offered again.
// Before a chunk closes, the commits its puts queued are drained, so the
// host cost covers the same work as the wal rung while the modeled latency
// is the put's ack.
func putRung(layer string, scale float64, d driver,
	put func(i int, done func(error)), commit func(done func(error))) (rung, error) {
	var bad error
	i := 0
	return measureRung(layer, scale, func(n int) (sim.Duration, error) {
		var offer func(done func())
		offer = func(done func()) {
			put(i, func(err error) {
				switch {
				case errors.Is(err, wal.ErrLogFull):
					commit(func(error) { offer(done) })
					return
				case err != nil && bad == nil:
					bad = err
				}
				i++
				done()
			})
		}
		lat, err := closedLoop(d, n, offer)
		drained := false
		commit(func(error) { drained = true })
		if !d.until(func() bool { return drained }) && err == nil {
			err = fmt.Errorf("commit drain stalled")
		}
		if err == nil {
			err = bad
		}
		return lat, err
	})
}

func rungKV(seed int64, scale float64) (rung, error) {
	eng, cl := groupRig(seed, 2*ladderRegion)
	g := core.New(cl, core.Config{})
	defer g.Close()
	d := engineDriver(eng)
	opened := false
	var openErr error
	db := kvstore.Open(wal.NodeStore{N: cl.Client()}, wal.CoreReplicator{G: g},
		kvstore.Config{LogSize: ladderRegion / 4, DataSize: ladderRegion, Seed: seed},
		func(err error) { opened, openErr = true, err })
	if !d.until(func() bool { return opened }) || openErr != nil {
		return rung{}, fmt.Errorf("kvstore rung: open: %v", openErr)
	}
	val := make([]byte, primIO)
	return putRung("kvstore", scale, d, func(i int, done func(error)) {
		if err := db.Put(ladderKey(i), val, done); err != nil {
			done(err) // a synchronous refusal never fires the callback
		}
	}, db.Commit)
}

// ladderServer is the one-group serving backend the shard and load rungs
// share: 1 group × 3 hosts × 1 shard, the served workload's data-plane
// settings.
func ladderServer(seed int64) (load.Server, error) {
	return load.OpenHyperLoop(load.ServerConfig{
		Groups: 1, ShardsPerGroup: 1, HostsPerGroup: primReplicas, Replicas: primReplicas,
		RegionSize: ladderRegion, FusionDepth: servedFusion, DoorbellCost: servedDoorbell,
		Workers: 1, Seed: seed,
	})
}

func rungShard(seed int64, scale float64) (rung, error) {
	srv, err := ladderServer(seed)
	if err != nil {
		return rung{}, err
	}
	defer srv.Close()
	keys := homeKeys(srv, 0, ladderKeys)
	val := make([]byte, primIO)
	return putRung("shard", scale, peDriver(srv.PE()), func(i int, done func(error)) {
		srv.Put(0, keys[i%len(keys)], val, done)
	}, srv.Plane(0).Commit)
}

// homeKeys returns n keys of the load driver's keyspace homed on group g.
func homeKeys(srv load.Server, g, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("ld/g%d/%06d", g, i); srv.HomeGroup(k) == g {
			keys = append(keys, k)
		}
	}
	return keys
}

// pump is the harness's own open-loop front end over a serving backend:
// per group a Poisson arrival process sampling the modeled connection space
// and an Admission controller in front of srv.Put — the pieces load.Run
// assembles, reassembled here because load.Run returns neither its server
// (whose engine, fabric and NIC counters the per-layer metrics need) nor
// per-arrival latencies (its percentiles are histogram bucket midpoints).
// Latency runs from an arrival's due time, stamped into its value, to its
// ack; a refused arrival has none and misses any limit.
type pump struct {
	srv       load.Server
	adms      []*load.Admission
	arrivals  int
	acked     int
	lat       sim.Duration // summed over acks
	lats      []int64      // per ack, when non-nil
	putLats   []int64      // plane put → ack, when non-nil
	good      int          // acks within slo
	slo       sim.Duration
	onArrival func()
	bad       error
}

func newPump(srv load.Server, adm load.AdmissionConfig) *pump {
	p := &pump{srv: srv}
	for g := 0; g < srv.Groups(); g++ {
		g := g
		eng := srv.PE().Partition(g)
		a := load.NewAdmission(eng, adm, nil, func(key string, val []byte, done func(error)) {
			put := eng.Now()
			srv.Put(g, key, val, func(err error) {
				if err == nil {
					d := eng.Now().Sub(sim.Time(binary.LittleEndian.Uint64(val)))
					p.acked++
					p.lat += d
					if d <= p.slo {
						p.good++
					}
					if p.lats != nil {
						p.lats = append(p.lats, int64(d))
						p.putLats = append(p.putLats, int64(eng.Now().Sub(put)))
					}
				} else if !errors.Is(err, wal.ErrLogFull) && p.bad == nil {
					p.bad = err // ring-full is backpressure: Admission re-queues the op
				}
				done(err)
			})
		}, nil)
		p.adms = append(p.adms, a)
	}
	return p
}

// offer schedules perGroup Poisson arrivals on every group, ratePerSec in
// total, each sampling a connection id from the 2^20 space.
func (p *pump) offer(seed int64, ratePerSec float64, perGroup, valueSize int) {
	groups := p.srv.Groups()
	space := (1 << 20) / groups
	const active = 4096
	churn := float64(space-active) / float64(perGroup)
	for g := 0; g < groups; g++ {
		eng, adm := p.srv.PE().Partition(g), p.adms[g]
		rng := sim.NewRand(seed + 77*int64(g) + 13)
		arr := load.NewPoisson(ratePerSec/float64(groups), rng.Fork())
		clients := load.NewClients(space, active, churn, load.DefaultTenants)
		keys := homeKeys(p.srv, g, ladderKeys)
		left := perGroup
		var tick func()
		tick = func() {
			id, class := clients.Sample(rng)
			val := make([]byte, valueSize)
			binary.LittleEndian.PutUint64(val, uint64(eng.Now()))
			adm.Offer(keys[id%len(keys)], val, class)
			p.arrivals++
			if p.onArrival != nil {
				p.onArrival()
			}
			if left--; left > 0 {
				eng.Schedule(arr.Next(), tick)
			}
		}
		eng.Schedule(arr.Next(), tick)
	}
}

// settled reports whether want arrivals were offered and every one reached
// a verdict.
func (p *pump) settled(want int) bool {
	if p.arrivals < want {
		return false
	}
	for _, a := range p.adms {
		if a.Pending() > 0 {
			return false
		}
	}
	return true
}

func (p *pump) verdicts() load.Verdicts {
	var v load.Verdicts
	for _, a := range p.adms {
		v.Add(a.Verdicts())
	}
	return v
}

func rungLoad(seed int64, scale float64) (rung, error) {
	srv, err := ladderServer(seed)
	if err != nil {
		return rung{}, err
	}
	defer srv.Close()
	d := peDriver(srv.PE())
	p := newPump(srv, servedAdmission)
	offered := 0
	r, err := measureRung("load", scale, func(n int) (sim.Duration, error) {
		before := p.lat
		offered += n
		p.offer(seed+int64(offered), ladderLoadKops*1e3, n, primIO)
		if !d.until(func() bool { return p.settled(offered) }) {
			return 0, fmt.Errorf("arrivals did not settle")
		}
		return p.lat - before, p.bad
	})
	if v := p.verdicts(); err == nil && (int(v.Acked) != offered || v.Failed != 0) {
		err = fmt.Errorf("load rung: %d of %d arrivals acked (shed %d, failed %d) at 0.3x capacity",
			v.Acked, offered, v.ShedQueueFull+v.ShedThrottled, v.Failed)
	}
	return r, err
}

// runLadder measures every rung and reports them with their self costs.
func runLadder(seed int64, scale float64, rep *report) error {
	build := []func() (rung, error){
		func() (rung, error) { return rungSim(scale) },
		func() (rung, error) { return rungFabric(seed, scale, primIO) },
		func() (rung, error) { return rungRDMA(seed, scale) },
		func() (rung, error) { return rungCore(seed, scale) },
		func() (rung, error) { return rungWAL(seed, scale) },
		func() (rung, error) { return rungKV(seed, scale) },
		func() (rung, error) { return rungShard(seed, scale) },
		func() (rung, error) { return rungLoad(seed, scale) },
	}
	var chain []rung
	for _, b := range build {
		r, err := b()
		if err != nil {
			return err
		}
		chain = append(chain, r)
	}
	reportLadder(rep, chain)

	// naive is a side rung standing on rdma (index 2 of the chain).
	nv, err := rungNaive(seed, scale)
	if err != nil {
		return err
	}
	below := chain[2]
	rep.layer("naive.ladder_wall_ns", "ns", nv.wallNs)
	rep.layer("naive.ladder_allocs", "count", nv.allocs)
	rep.layer("naive.ladder_sim_ns", "ns", nv.simNs)
	rep.layer("naive.self_wall_ns", "ns", selfCosts([]float64{below.wallNs, nv.wallNs})[1])
	rep.layer("naive.self_allocs", "count", selfCosts([]float64{below.allocs, nv.allocs})[1])
	rep.layer("naive.self_sim_ns", "ns", selfCosts([]float64{below.simNs, nv.simNs})[1])

	for _, sz := range []struct {
		size int
		name string
	}{{64, "fabric.ladder_wall_ns_64b"}, {8192, "fabric.ladder_wall_ns_8k"}} {
		r, err := rungFabric(seed, scale, sz.size)
		if err != nil {
			return err
		}
		rep.layer(sz.name, "ns", r.wallNs)
	}
	return nil
}

// reportLadder emits the main chain's rungs and self costs.
func reportLadder(rep *report, chain []rung) {
	col := func(f func(rung) float64) []float64 {
		out := make([]float64, len(chain))
		for i, r := range chain {
			out[i] = f(r)
		}
		return out
	}
	wall, allocs, simNs := col(func(r rung) float64 { return r.wallNs }),
		col(func(r rung) float64 { return r.allocs }), col(func(r rung) float64 { return r.simNs })
	sw, sa, ss := selfCosts(wall), selfCosts(allocs), selfCosts(simNs)
	for i, r := range chain {
		rep.layer(r.layer+".ladder_wall_ns", "ns", wall[i])
		rep.layer(r.layer+".ladder_allocs", "count", allocs[i])
		rep.layer(r.layer+".ladder_sim_ns", "ns", simNs[i])
		rep.layer(r.layer+".self_wall_ns", "ns", sw[i])
		rep.layer(r.layer+".self_allocs", "count", sa[i])
		rep.layer(r.layer+".self_sim_ns", "ns", ss[i])
	}
}
