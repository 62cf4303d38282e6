package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/locks"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// txn_kv: 8 simulated closed-loop clients over one 3-replica core.Group
// carrying a kvstore (own WAL + data region, 20k preloaded 1 KiB records)
// and, beside it in the same store window, a txn.Manager per client over a
// second WAL, an object table and a 64-stripe gCAS lock table. Zipfian
// YCSB-A: 40% updates, 40% reads (alternating head Get and one-sided
// GetFromReplica), 20% two-object transactions.

const (
	kvClients  = 8
	kvRecords  = 20000
	kvValue    = 1024
	kvChunks   = 400
	kvChunkOps = 250                  // × scale; ~10 s measured on the reference box
	kvPreload  = 8                    // preload puts in flight
	kvRetry    = 10 * sim.Microsecond // pause before re-offering a put the full WAL ring refused
	kvTheta    = 0.99

	kvLogBase  = 0
	kvLogSize  = 4 << 20
	kvDataBase = kvLogBase + kvLogSize
	kvDataSize = 24 << 20
	txLogBase  = kvDataBase + kvDataSize
	txLogSize  = 1 << 20
	txObjBase  = txLogBase + txLogSize
	txObjects  = 4096
	txObjSize  = 64 // one lock stripe per object slot: stripe = (off/64) % 64
	txStripes  = 64
	txLockBase = txObjBase + txObjects*txObjSize
	kvStore    = 32 << 20
)

// Op kinds of the txn_kv stream.
const (
	kvUpdate = iota
	kvGet
	kvGetReplica
	kvTxn
)

type kvOp struct {
	kind    uint8
	replica uint8  // kvGetReplica: which replica serves
	block   uint8  // kvUpdate: payload block
	key     uint32 // record rank (kvUpdate / reads)
	objA    uint16 // kvTxn: the two objects
	objB    uint16
}

type kvInputs struct {
	records int // preloaded records (kvRecords; fewer only below full scale)
	blocks  [][]byte
	ops     []kvOp
	digest  string
}

func genKVOps(seed int64, n, records int) kvInputs {
	r := rand.New(rand.NewSource(seed))
	d := newDigest()
	d.u64(uint64(records))
	in := kvInputs{ops: make([]kvOp, n), records: records}
	for i := 0; i < primBlocks; i++ {
		b := make([]byte, kvValue)
		r.Read(b)
		in.blocks = append(in.blocks, b)
		d.bytes(b)
	}
	keys := newZipf(r, records, kvTheta)
	objs := newZipf(r, txObjects, kvTheta)
	reads := 0
	for i := range in.ops {
		o := &in.ops[i]
		switch k := r.Intn(10); {
		case k < 4:
			o.kind = kvUpdate
			o.key = uint32(keys.next())
			o.block = uint8(r.Intn(primBlocks))
		case k < 8:
			o.key = uint32(keys.next())
			if reads%2 == 0 {
				o.kind = kvGet
			} else {
				o.kind = kvGetReplica
				o.replica = uint8(r.Intn(primReplicas))
			}
			reads++
		default:
			o.kind = kvTxn
			o.objA = uint16(objs.next())
			o.objB = uint16(objs.next())
			if o.objB == o.objA {
				o.objB = (o.objA + 1) % txObjects
			}
		}
		d.u64(uint64(o.kind), uint64(o.replica), uint64(o.block), uint64(o.key), uint64(o.objA), uint64(o.objB))
	}
	in.digest = d.sum()
	return in
}

func kvKey(rank uint32) string { return fmt.Sprintf("user%08d", rank) }

// preloadStamp marks a record's preloaded value; update values carry the
// index of the op that wrote them, so any value read back can be traced to
// the write that produced it.
const preloadStamp = uint64(1) << 63

// kvBlock returns the payload block behind a stamp, or nil if no write of
// key ever carried it.
func (in *kvInputs) kvBlock(stamp uint64, key uint32) []byte {
	if stamp == preloadStamp|uint64(key) {
		return in.blocks[key%primBlocks]
	}
	if stamp >= uint64(len(in.ops)) {
		return nil
	}
	if o := in.ops[stamp]; o.kind == kvUpdate && o.key == key {
		return in.blocks[o.block]
	}
	return nil
}

// kvFill writes the value a stamp stands for into dst.
func (in *kvInputs) kvFill(dst []byte, stamp uint64, key uint32) {
	copy(dst, in.kvBlock(stamp, key))
	binary.LittleEndian.PutUint64(dst, stamp)
}

// kvMatches reports whether v is exactly the value stamp stands for.
func (in *kvInputs) kvMatches(v []byte, stamp uint64, key uint32) bool {
	b := in.kvBlock(stamp, key)
	return b != nil && len(v) == kvValue &&
		binary.LittleEndian.Uint64(v) == stamp && bytes.Equal(v[8:], b[8:])
}

// kvRig is the store stack plus the closed-loop driver state.
type kvRig struct {
	eng   *sim.Engine
	cl    *cluster.Cluster
	g     *core.Group
	db    *kvstore.DB
	txLog *wal.Log
	lm    *locks.Manager
	mgrs  []*txn.Manager
	in    kvInputs
	keys  []string

	next, total, completed int
	chunkOps               int
	ct                     *chunkTimer
	latWrite               []int64 // updates + txns: the end-to-end latency set
	latPut, latGet, latTxn []int64
	lastStamp              []uint64 // per record: stamp of the newest issued value
	objShadow              []uint64 // per object: stamp of the newest committed value
	retries                int      // ErrLogFull bounces (backpressure, not failures)
	stale                  int
	failed                 int
	firstErr               error
	traceEvents            uint64
	scratch                [kvValue]byte // Put copies its value synchronously
}

func (r *kvRig) waitFor(what string, limit sim.Duration, start func(done func(error))) error {
	fired := false
	var ferr error
	start(func(err error) { fired, ferr = true, err })
	r.eng.RunUntil(func() bool { return fired }, r.eng.Now().Add(limit))
	if !fired {
		return fmt.Errorf("%s: no completion within %v of modeled time", what, limit)
	}
	if ferr != nil {
		return fmt.Errorf("%s: %w", what, ferr)
	}
	return nil
}

// setupKV is the timed set-up: build the stack and preload every record
// through the replicated put path, then drain the commit backlog.
func setupKV(seed int64, in kvInputs) (*kvRig, error) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: primReplicas + 1, StoreSize: kvStore, Seed: seed})
	r := &kvRig{eng: eng, cl: cl, g: core.New(cl, core.Config{}), in: in,
		lastStamp: make([]uint64, in.records), objShadow: make([]uint64, txObjects)}
	store := wal.NodeStore{N: cl.Client()}
	rep := wal.CoreReplicator{G: r.g}
	if err := r.waitFor("kvstore open", sim.Second, func(done func(error)) {
		r.db = kvstore.Open(store, rep, kvstore.Config{
			LogBase: kvLogBase, LogSize: kvLogSize, DataBase: kvDataBase, DataSize: kvDataSize, Seed: seed,
		}, done)
	}); err != nil {
		return nil, err
	}
	r.db.EnableReplicaReads(cl.Client(), cl.Replicas())
	if err := r.waitFor("txn log open", sim.Second, func(done func(error)) {
		r.txLog = wal.New(store, rep, txLogBase, txLogSize, done)
	}); err != nil {
		return nil, err
	}
	// Host-driven lock retries: the NIC-resident loop path runs one
	// gATOMIC_LOOP program per group at a time, so a coordinator that holds
	// stripe A and queues for stripe B behind another coordinator's loop
	// spinning on A can only end in ErrGaveUp (README, "Findings"). A
	// benchmark workload must not fail by construction.
	r.lm = locks.New(r.g, eng, txLockBase, locks.Config{HostOnly: true})
	for c := 0; c < kvClients; c++ {
		r.mgrs = append(r.mgrs, txn.New(eng, r.txLog, store, r.lm,
			txn.Config{LockStripes: txStripes, Owner: uint64(c + 1)}))
	}
	r.keys = make([]string, in.records)
	for i := range r.keys {
		r.keys[i] = kvKey(uint32(i))
	}

	loaded, issued := 0, 0
	var perr error
	var put func()
	put = func() {
		if issued >= in.records || perr != nil {
			return
		}
		k := uint32(issued)
		stamp := preloadStamp | uint64(k)
		in.kvFill(r.scratch[:], stamp, k)
		err := r.db.Put(r.keys[k], r.scratch[:], func(err error) {
			if err != nil && perr == nil {
				perr = err
			}
			loaded++
			put()
		})
		if errors.Is(err, wal.ErrLogFull) {
			// The ring frees at commit, not at ack: let the executor drain.
			r.db.Commit(func(error) { put() })
			return
		}
		if err != nil {
			perr = err
			return
		}
		r.lastStamp[k] = stamp
		issued++
	}
	for i := 0; i < kvPreload; i++ {
		put()
	}
	eng.RunUntil(func() bool { return loaded >= in.records || perr != nil }, eng.Now().Add(60*sim.Second))
	if perr != nil || loaded < in.records {
		return nil, fmt.Errorf("preload: %d/%d records, err %v", loaded, in.records, perr)
	}
	if err := r.waitFor("preload commit", 10*sim.Second, r.db.Commit); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *kvRig) close() {
	r.db.Close()
	r.g.Close()
}

func (r *kvRig) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// finish closes an op: latency bookkeeping, chunk clock, next op for this
// client.
func (r *kvRig) finish(c int, start sim.Time, lat *[]int64, write bool) {
	d := int64(r.eng.Now().Sub(start))
	*lat = append(*lat, d)
	if write {
		r.latWrite = append(r.latWrite, d)
	}
	r.completed++
	if r.ct != nil && r.completed%r.chunkOps == 0 {
		r.ct.end(r.chunkOps)
	}
	r.client(c)
}

// client issues client c's next op from the shared stream (the simulator is
// deterministic, so which client draws which op is too).
func (r *kvRig) client(c int) {
	if r.next >= r.total {
		return
	}
	i := r.next
	r.next++
	o := r.in.ops[i]
	start := r.eng.Now()
	switch o.kind {
	case kvUpdate:
		r.update(c, i, o, start)
	case kvGet:
		v, ok := r.db.Get(r.keys[o.key])
		if !ok || !r.in.kvMatches(v, r.lastStamp[o.key], o.key) {
			r.fail(fmt.Errorf("op %d: head Get(%s) is not the newest issued value", i, r.keys[o.key]))
		}
		r.finish(c, start, &r.latGet, false)
	case kvGetReplica:
		r.db.GetFromReplica(r.keys[o.key], int(o.replica), func(v []byte, err error) {
			switch {
			case errors.Is(err, kvstore.ErrStale):
				r.stale++ // the slot is mid-commit on that replica: allowed, eventually consistent
			case err != nil:
				r.fail(fmt.Errorf("op %d: GetFromReplica(%s, %d): %w", i, r.keys[o.key], o.replica, err))
			case len(v) != kvValue || !r.in.kvMatches(v, binary.LittleEndian.Uint64(v), o.key):
				r.fail(fmt.Errorf("op %d: replica %d returned bytes no write of %s produced", i, o.replica, r.keys[o.key]))
			}
			r.finish(c, start, &r.latGet, false)
		})
	case kvTxn:
		r.transact(c, i, o, start)
	}
}

func (r *kvRig) update(c, i int, o kvOp, start sim.Time) {
	stamp := uint64(i)
	r.in.kvFill(r.scratch[:], stamp, o.key)
	err := r.db.Put(r.keys[o.key], r.scratch[:], func(err error) {
		if err != nil {
			r.fail(fmt.Errorf("op %d: Put ack: %w", i, err))
		}
		r.finish(c, start, &r.latPut, true)
	})
	switch {
	case errors.Is(err, wal.ErrLogFull):
		// Ring-full backpressure: the slot was rolled back, retry shortly.
		r.retries++
		r.eng.Schedule(kvRetry, func() { r.update(c, i, o, start) })
	case err != nil:
		r.fail(fmt.Errorf("op %d: Put: %w", i, err))
		r.finish(c, start, &r.latPut, true)
	default:
		r.lastStamp[o.key] = stamp
	}
}

func txObjOff(obj uint16) int { return txObjBase + int(obj)*txObjSize }

// txObjValue is the 64-byte image a transaction writes to an object.
func txObjValue(stamp uint64, obj uint16) []byte {
	v := make([]byte, txObjSize)
	for k := 0; k < txObjSize; k += 8 {
		binary.LittleEndian.PutUint64(v[k:], stamp^uint64(obj)<<32^uint64(k))
	}
	binary.LittleEndian.PutUint64(v, stamp)
	return v
}

func (r *kvRig) transact(c, i int, o kvOp, start sim.Time) {
	stamp := uint64(i) + 1 // 0 is "never written"
	t, err := r.mgrs[c].Begin()
	if err == nil {
		err = t.Write(txObjOff(o.objA), txObjValue(stamp, o.objA))
	}
	if err == nil {
		err = t.Write(txObjOff(o.objB), txObjValue(stamp, o.objB))
	}
	if err == nil {
		err = t.Commit(func(err error) {
			if err != nil {
				r.fail(fmt.Errorf("op %d: txn commit: %w", i, err))
			} else {
				// Commit acks of conflicting transactions arrive in lock
				// order, so the last ack per object names its final value.
				r.objShadow[o.objA], r.objShadow[o.objB] = stamp, stamp
			}
			r.finish(c, start, &r.latTxn, true)
		})
	}
	if err != nil {
		r.fail(fmt.Errorf("op %d: txn: %w", i, err))
		r.finish(c, start, &r.latTxn, true)
	}
}

// run drives ops [r.next, r.next+n) with all clients and returns when every
// one has completed. Chunks are cut on the fly at every chunkOps-th
// completion, with no drain between them.
func (r *kvRig) run(n int) error {
	r.total = r.next + n
	if r.total > len(r.in.ops) {
		return fmt.Errorf("op stream exhausted")
	}
	want := r.completed + n
	if r.ct != nil {
		r.ct.start()
	}
	for c := 0; c < kvClients; c++ {
		r.client(c)
	}
	r.eng.RunUntil(func() bool { return r.completed >= want || r.g.Failed() != nil },
		r.eng.Now().Add(sim.Duration(n+1000)*sim.Millisecond))
	if err := r.g.Failed(); err != nil {
		return fmt.Errorf("group failed: %w", err)
	}
	if r.completed < want {
		return fmt.Errorf("only %d/%d ops completed by the modeled deadline", r.completed, want)
	}
	return nil
}

// verify drains both logs, then checks: every record reads back at its
// newest acked value; kvstore.Rebuild from the head's and the tail replica's
// durable images agree with each other and with that; every object holds its
// last committed image on the client and on every replica.
func (r *kvRig) verify() error {
	if r.firstErr != nil {
		return r.firstErr
	}
	if err := r.waitFor("kv commit drain", 10*sim.Second, r.db.Commit); err != nil {
		return err
	}
	for r.txLog.Pending() > 0 {
		if err := r.waitFor("txn log drain", sim.Second, func(done func(error)) {
			if err := r.txLog.ExecuteAndAdvance(done); err != nil {
				done(err)
			}
		}); err != nil {
			return err
		}
	}
	if err := r.waitFor("final gFLUSH", sim.Second, func(done func(error)) {
		if err := r.g.GFlush(func(res core.Result) { done(res.Err) }); err != nil {
			done(err)
		}
	}); err != nil {
		return err
	}
	cfg := kvstore.Config{LogBase: kvLogBase, LogSize: kvLogSize, DataBase: kvDataBase, DataSize: kvDataSize}
	head, err := kvstore.Rebuild(r.cl.Client().StoreBytes, cfg)
	if err != nil {
		return fmt.Errorf("rebuild head: %w", err)
	}
	tailNode := r.cl.Replicas()[primReplicas-1]
	tb := tailNode.Store.Backing().(*rdma.NVMBacking)
	tail, err := kvstore.Rebuild(func(off, size int) []byte { return tb.Device().DurableRead(tb.Base()+off, size) }, cfg)
	if err != nil {
		return fmt.Errorf("rebuild tail: %w", err)
	}
	if len(head) != r.in.records || len(tail) != r.in.records {
		return fmt.Errorf("rebuild: head has %d records, tail %d, want %d", len(head), len(tail), r.in.records)
	}
	for k := uint32(0); k < uint32(r.in.records); k++ {
		got, ok := r.db.Get(r.keys[k])
		switch {
		case !ok || !r.in.kvMatches(got, r.lastStamp[k], k):
			return fmt.Errorf("%s does not read back at its newest acked value", r.keys[k])
		case !bytes.Equal(head[r.keys[k]], got):
			return fmt.Errorf("%s: head rebuild differs from the newest acked value", r.keys[k])
		case !bytes.Equal(tail[r.keys[k]], got):
			return fmt.Errorf("%s: tail replica's durable rebuild differs from the head's", r.keys[k])
		}
	}
	for obj := 0; obj < txObjects; obj++ {
		want := make([]byte, txObjSize)
		if s := r.objShadow[obj]; s != 0 {
			want = txObjValue(s, uint16(obj))
		}
		for n, node := range r.cl.Nodes {
			if got := node.StoreBytes(txObjOff(uint16(obj)), txObjSize); !bytes.Equal(got, want) {
				return fmt.Errorf("object %d on node %d does not hold its last committed image", obj, n)
			}
		}
	}
	for w := 0; w < txStripes; w++ {
		for n, node := range r.cl.Replicas() {
			if got := binary.LittleEndian.Uint64(node.StoreBytes(txLockBase+8*w, 8)); got != 0 {
				return fmt.Errorf("lock stripe %d still held on replica %d: %#x", w, n, got)
			}
		}
	}
	return nil
}

type kvCounters struct {
	fired, msgs, bytes       uint64
	nic                      rdma.Counters
	puts                     uint64
	txAppends, txExecutes    uint64
	acquires, retries, undos uint64
	committed, aborted       uint64
}

func (r *kvRig) counters() kvCounters {
	c := kvCounters{fired: r.eng.Fired(), msgs: r.cl.Net.Delivered()}
	for _, n := range r.cl.Nodes {
		c.bytes += r.cl.Net.BytesSent(n.NIC.Node())
		addNIC(&c.nic, n.NIC.Counters())
	}
	c.puts, _, _, _ = r.db.Stats()
	c.txAppends, c.txExecutes = r.txLog.Stats()
	c.acquires, c.retries, c.undos = r.lm.Stats()
	for _, m := range r.mgrs {
		ok, ab := m.Stats()
		c.committed += ok
		c.aborted += ab
	}
	return c
}

type measuredKV struct {
	lat    simLatency
	ct     *chunkTimer
	mem    memDelta
	simNs  sim.Duration
	before kvCounters
	after  kvCounters
}

func measureKV(r *kvRig, chunks, chunkOps int) (measuredKV, error) {
	n := chunks * chunkOps
	r.chunkOps = chunkOps
	r.ct = newChunkTimer(chunks)
	r.latWrite = make([]int64, 0, n)
	r.latPut = make([]int64, 0, n)
	r.latGet = make([]int64, 0, n)
	r.latTxn = make([]int64, 0, n)
	m := measuredKV{ct: r.ct, before: r.counters()}
	simStart := r.eng.Now()
	mm := markMem()
	if err := r.run(n); err != nil {
		return m, err
	}
	m.mem = mm.since()
	m.simNs = r.eng.Now().Sub(simStart)
	m.after = r.counters()
	var err error
	m.lat, err = summarize(r.latWrite)
	return m, err
}

// planKV sizes a run. The preload is fixed-count set-up work; it shrinks
// only below full scale, so the smoke test stays fast.
func planKV(scale float64) (chunks, chunkOps, records int) {
	records = kvRecords
	if scale < 1 {
		records = scaled(kvRecords, scale)
		if records < 64 {
			records = 64
		}
	}
	return kvChunks, scaled(kvChunkOps, scale), records
}

func runTxnKV(seed int64, scale float64, rep *report) error {
	chunks, chunkOps, records := planKV(scale)
	n := chunks * chunkOps
	in := genKVOps(seed, n, records)
	rep.note("input_digest", in.digest)
	rep.note("ops", fmt.Sprintf("%d measured in %d chunks of %d over %d preloaded %d B records; closed loop, %d clients",
		n, chunks, chunkOps, records, kvValue, kvClients))

	var rig *kvRig
	setup, err := timeSetup(func() {
		if rig != nil {
			rig.close()
			rig = nil
		}
	}, func() error {
		var err error
		rig, err = setupKV(seed, in)
		return err
	})
	if err != nil {
		return err
	}
	defer rig.close()

	m, err := measureKV(rig, chunks, chunkOps)
	rep.attempted, rep.failed = n, rig.failed
	if err != nil {
		return err
	}
	if err := rig.verify(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	rep.note("sim_samples", fmt.Sprintf("%d updates+txns (%d beyond p99.9); %d stale replica reads, %d ring-full retries",
		m.lat.n, m.lat.beyondP999Samples, rig.stale, rig.retries))
	goodput := float64(n-rig.failed) / m.simNs.Seconds() / 1e3
	rep.endToEnd(m.lat, goodput, goodput, m.ct, m.mem, n, setup)
	return nil
}

func traceTxnKV(seed int64, scale float64, rep *report) error {
	chunks, chunkOps, records := planKV(scale)
	in := genKVOps(seed, chunks*chunkOps, records)
	rep.note("input_digest", in.digest)
	chunks /= 5
	n := chunks * chunkOps
	rep.attempted = n

	pass := func(traced bool) (*kvRig, measuredKV, error) {
		rig, err := setupKV(seed, in)
		if err != nil {
			return nil, measuredKV{}, err
		}
		defer rig.close()
		if traced {
			for _, node := range rig.cl.Nodes {
				node.NIC.SetTracer(func(rdma.TraceEvent) { rig.traceEvents++ })
			}
		}
		m, err := measureKV(rig, chunks, chunkOps)
		rep.failed += rig.failed
		if err != nil {
			return rig, m, err
		}
		return rig, m, rig.verify()
	}
	plainRig, plain, err := pass(false)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	tracedRig, traced, err := pass(true)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	if !equalInt64(plainRig.latWrite, tracedRig.latWrite) || !equalInt64(plainRig.latGet, tracedRig.latGet) {
		return fmt.Errorf("tracing moved a modeled latency")
	}

	ops := float64(n)
	b, a := plain.before, plain.after
	puts := float64(a.puts - b.puts)
	txns := float64(a.committed + a.aborted - b.committed - b.aborted)
	rep.trafficLayer(a.fired-b.fired, a.msgs-b.msgs, a.bytes-b.bytes, puts*kvValue+txns*2*txObjSize, plain.ct.p10(), ops)
	rep.nicLayer(subNIC(a.nic, b.nic), ops)
	// kvstore logs exactly one record per Put and executes each once; its
	// private log has no public counter, so its share is the put count.
	rep.layer("wal.appends_per_op", "count", (puts+float64(a.txAppends-b.txAppends))/ops)
	rep.layer("wal.executes_per_op", "count", (puts+float64(a.txExecutes-b.txExecutes))/ops)
	get, err := summarize(plainRig.latGet)
	if err != nil {
		return err
	}
	put, err := summarize(plainRig.latPut)
	if err != nil {
		return err
	}
	commit, err := summarize(plainRig.latTxn)
	if err != nil {
		return err
	}
	rep.layer("kvstore.sim_get_p99_us", "us", get.p99/1e3)
	rep.layer("kvstore.sim_put_p99_us", "us", put.p99/1e3)
	rep.layer("locks.retries_per_acquire", "count", ratio(float64(a.retries-b.retries), float64(a.acquires-b.acquires)))
	rep.layer("locks.undos_per_acquire", "count", ratio(float64(a.undos-b.undos), float64(a.acquires-b.acquires)))
	rep.layer("txn.abort_frac", "ratio", ratio(float64(a.aborted-b.aborted), txns))
	rep.layer("txn.sim_commit_p99_us", "us", commit.p99/1e3)
	rep.runtimeLayer(plain.ct, plain.mem, n)
	rep.layer("trace.events_per_op", "count", float64(tracedRig.traceEvents)/ops)
	rep.layer("trace.overhead_frac", "ratio", traced.ct.p10()/plain.ct.p10()-1)
	return nil
}

func subNIC(a, b rdma.Counters) rdma.Counters {
	a.WQEsExecuted -= b.WQEsExecuted
	a.CacheFlushes -= b.CacheFlushes
	a.RNRs -= b.RNRs
	a.Doorbells -= b.Doorbells
	a.ProgBranches -= b.ProgBranches
	return a
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
