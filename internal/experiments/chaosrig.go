package experiments

import (
	"errors"
	"fmt"

	"hyperloop/internal/chain"
	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/faults"
	"hyperloop/internal/locks"
	"hyperloop/internal/metrics"
	"hyperloop/internal/objstore"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/stream"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// Store layout for chaos scenarios (well under the 1 MiB store): lock table
// at 0, object slots at 4 KiB, WAL at 64 KiB.
const (
	fmMembers     = 3
	fmLockBase    = 0
	fmLockStripes = 64
	fmObjBase     = 4096
	fmObjSlots    = 2048
	fmLogBase     = 64 << 10
	fmLogSize     = 192 << 10
	fmStoreSize   = 1 << 20
)

// Workload shape: a closed loop of small multi-slot transactions that runs
// through the fault and keeps going after repair.
const (
	fmPipeline  = 4
	fmThinkMean = 400 * sim.Microsecond
	fmStopAt    = 70 * sim.Millisecond
	fmDeadline  = 400 * sim.Millisecond
)

// Stream shape: every chaos scenario streams the object window to a
// simulated object store.
const (
	crPrefix     = "cold"
	crFlushEvery = 500 * sim.Microsecond
	crWindowSize = 8 * fmObjSlots
)

var (
	chaosChainCfg = chain.Config{HeartbeatEvery: sim.Millisecond, MissedThreshold: 5}
	chaosCoreCfg  = core.Config{Depth: 512, OpTimeout: 25 * sim.Millisecond}
	// chaosDetectBound is the failure detector's worst-case latency.
	chaosDetectBound = sim.Duration(chaosChainCfg.MissedThreshold) * chaosChainCfg.HeartbeatEvery
)

// chaosRig is the replicated-transaction stack every chaos scenario runs:
// client + 3 chain members + 1 spare, a HyperLoop group, WAL, segment
// streamer, group locks and txn coordinator, with the observability and
// fault planes attached. It owns the closed-loop workload, the shared
// head and tail of chain repair, and the quiesce/drain/flush epilogue; a
// scenario installs its faults, supplies how the spare gets its bytes, and
// assembles its own verdict.
type chaosRig struct {
	eng     *sim.Engine
	client  *cluster.Node
	members []*cluster.Node // the original chain
	spare   *cluster.Node

	// group is what the lock manager CASes through and rep what the WAL
	// replicates through; repair points both at the rebuilt group.
	group struct{ *core.Group }
	rep   wal.CoreReplicator
	log   *wal.Log
	obs   *objstore.Store
	str   *stream.Streamer
	tm    *txn.Manager

	label string
	reg   *metrics.Registry
	rec   *span.Recorder
	plane *faults.Plane
	mgr   *chain.Manager

	repairErr error
	resumed   bool
	resumedAt sim.Time
	recs      []*check.TxnRecord

	// Outcome of run.
	quiesced bool
	drainErr error
	streamOK bool
}

// newChaosRig builds the stack up to (not including) fault installation and
// the chain manager. segBytes and snapEvery shape the stream (zero = the
// streamer's defaults).
func newChaosRig(seed int64, label string, segBytes int, snapEvery sim.Duration) *chaosRig {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     2 + fmMembers, // client + members + spare
		StoreSize: fmStoreSize,
		Seed:      seed*2 + 1,
	})
	r := &chaosRig{
		eng:     eng,
		client:  cl.Client(),
		members: cl.Replicas()[:fmMembers],
		spare:   cl.Replicas()[fmMembers],
		label:   label,
	}
	r.setGroup(r.members)
	r.log = wal.New(wal.NodeStore{N: r.client}, &r.rep, fmLogBase, fmLogSize, nil)
	// The stream rides the WAL from sequence zero (the all-zero object window
	// is its implicit baseline) and only observes it: the scenario unfolds
	// identically without it.
	r.obs = objstore.New(eng, objstore.Config{Seed: seed*3 + 11})
	r.str = stream.NewStreamer(eng, r.obs, r.log, stream.StreamerConfig{
		Prefix:        crPrefix,
		WindowBase:    fmObjBase,
		WindowSize:    crWindowSize,
		SegmentBytes:  segBytes,
		FlushEvery:    crFlushEvery,
		SnapshotEvery: snapEvery,
	}, r.client.StoreBytes)
	lm := locks.New(&r.group, eng, fmLockBase, locks.Config{})
	r.tm = txn.New(eng, r.log, wal.NodeStore{N: r.client}, lm, txn.Config{LockStripes: fmLockStripes})

	// Observability plane, always on: spans and counters only observe, and
	// the span-conservation checker gets exercised by every scenario.
	r.reg = metrics.NewRegistry()
	r.rec = span.NewRecorder(eng)
	r.log.Instrument(r.reg, r.rec, label, eng.Now)
	cluster.Instrument(r.reg, cl, label)

	r.plane = faults.NewPlane(eng, cl, seed^0x5EED)
	r.plane.SetSpans(r.rec)
	return r
}

// setGroup builds a fresh group over nodes and points locks and WAL at it.
func (r *chaosRig) setGroup(nodes []*cluster.Node) {
	r.group.Group = core.NewWithNodes(r.eng, r.client, nodes, chaosCoreCfg)
	r.rep.G = r.group.Group
}

func (r *chaosRig) fail(err error) {
	if r.repairErr == nil {
		r.repairErr = err
	}
	r.mgr.Halt()
}

// manage starts the chain manager. On a detected failure it tears the group
// down, resets the lock table locally and takes the spare, then hands the
// spare to restore — the scenario's way of filling it (live catch-up, cold
// restore) — which calls rejoin once the spare holds the data: the group is
// rebuilt over survivors + spare, the WAL reattached (re-replicating its
// unexecuted records) and the lock reset re-replicated durably before the
// chain resumes.
func (r *chaosRig) manage(restore func(spare *cluster.Node, rejoin func())) {
	r.mgr = chain.NewManager(r.eng, r.client, r.members, []*cluster.Node{r.spare}, chaosChainCfg,
		func(_ *cluster.Node, survivors []*cluster.Node) {
			r.group.Close()
			r.client.StoreWrite(fmLockBase, make([]byte, 8*fmLockStripes))
			sp, err := r.mgr.TakeSpare()
			if err != nil {
				r.fail(err)
				return
			}
			restore(sp, func() {
				newMembers := append(append([]*cluster.Node{}, survivors...), sp)
				r.setGroup(newMembers)
				r.log.Reattach(&r.rep, func(err error) {
					if err != nil {
						r.fail(fmt.Errorf("reattach: %w", err))
					}
				})
				r.rep.Write(fmLockBase, 8*fmLockStripes, true, errOnly(func(err error) {
					if err != nil {
						r.fail(fmt.Errorf("lock reset: %w", err))
						return
					}
					r.mgr.Resume(newMembers)
					r.resumedAt, r.resumed = r.eng.Now(), true
				}))
			})
		})
	r.mgr.Instrument(r.reg, r.rec, r.label)
}

// run drives the closed-loop workload through fault and repair — fmPipeline
// strands, each committing transactions of 1–3 distinct slots stamped with
// the transaction ID, thinking an exponential gap between commits, holding
// off while the chain is paused — then quiesces, drains and flushes.
func (r *chaosRig) run(seed int64) {
	eng := r.eng
	wr := sim.NewRand(seed + 0x7777)
	stopAt := sim.Time(0).Add(fmStopAt)
	nextID := uint64(1)
	inflight := 0
	var issue func()
	think := func() { eng.Schedule(wr.Exp(fmThinkMean), issue) }
	issue = func() {
		if eng.Now() >= stopAt {
			return
		}
		if r.mgr.Paused() || r.group.Failed() != nil {
			eng.Schedule(200*sim.Microsecond, issue)
			return
		}
		t, err := r.tm.Begin()
		if err != nil {
			return
		}
		n := 1 + wr.Intn(3)
		slots := make([]int, 0, n)
		seen := map[int]bool{}
		for len(slots) < n {
			s := wr.Intn(fmObjSlots)
			if !seen[s] {
				seen[s] = true
				slots = append(slots, s)
			}
		}
		rec := &check.TxnRecord{ID: nextID, Slots: slots}
		nextID++
		r.recs = append(r.recs, rec)
		for _, s := range slots {
			t.WriteUint64(fmObjBase+8*s, rec.ID)
		}
		inflight++
		err = t.Commit(func(err error) {
			inflight--
			if err == nil {
				rec.Acked = true
			} else {
				rec.Err = err
			}
			think()
		})
		if err != nil {
			inflight--
			rec.Err = err
			think()
		}
	}
	for i := 0; i < fmPipeline; i++ {
		eng.Schedule(sim.Duration(i)*50*sim.Microsecond, issue)
	}

	// Quiesce: no commit in flight and the chain unpaused (or the repair
	// definitively failed).
	deadline := sim.Time(0).Add(fmDeadline)
	eng.RunFor(fmStopAt)
	r.quiesced = eng.RunUntil(func() bool {
		return inflight == 0 && (!r.mgr.Paused() || r.repairErr != nil)
	}, deadline)

	// Drain: replay any still-pending durably-logged records (from
	// indeterminate commits interrupted by the fault) so the object region
	// reaches its final converged state, then flush everything.
	for r.drainErr == nil && r.log.Pending() > 0 {
		if !eng.RunUntil(r.log.Ready, deadline) {
			r.drainErr = errors.New("drain: record never became ready")
			break
		}
		replayDone, replayErr := false, error(nil)
		if err := r.log.ExecuteAndAdvance(func(err error) { replayDone, replayErr = true, err }); err != nil {
			r.drainErr = fmt.Errorf("drain: %w", err)
			break
		}
		if !eng.RunUntil(func() bool { return replayDone }, deadline) {
			r.drainErr = errors.New("drain: replay stalled")
		} else if replayErr != nil {
			r.drainErr = fmt.Errorf("drain replay: %w", replayErr)
		}
	}
	if r.repairErr == nil && r.drainErr == nil {
		flushed, flushErr := false, error(nil)
		r.rep.Flush(func(res core.Result) { flushed, flushErr = true, res.Err })
		if !eng.RunUntil(func() bool { return flushed }, deadline) {
			r.drainErr = errors.New("final flush stalled")
		} else if flushErr != nil {
			r.drainErr = fmt.Errorf("final flush: %w", flushErr)
		}
	}
	// Let the stream finish uploading everything committed, so the
	// restore-equivalence check compares a complete manifest.
	streamIdle := false
	r.str.Quiesce(func() { streamIdle = true })
	r.streamOK = eng.RunUntil(func() bool { return streamIdle }, deadline)
	r.mgr.Halt()
	r.plane.StopAll()
	r.reg.Sample(eng.Now())
}

// tally counts acked and indeterminate transactions.
func (r *chaosRig) tally() (committed, errored int) {
	for _, rec := range r.recs {
		if rec.Acked {
			committed++
		} else {
			errored++
		}
	}
	return committed, errored
}

// txns is the workload's transaction ledger by value, for the checkers.
func (r *chaosRig) txns() []check.TxnRecord {
	out := make([]check.TxnRecord, len(r.recs))
	for i, rec := range r.recs {
		out[i] = *rec
	}
	return out
}

// detectIn is the fault-to-detection delay (0 when nothing was detected).
func (r *chaosRig) detectIn(faultAt sim.Duration) sim.Duration {
	if at, ok := r.mgr.LastDetection(); ok {
		return at.Sub(sim.Time(0).Add(faultAt))
	}
	return 0
}

func liveImage(n *cluster.Node) check.Image {
	return check.Image{Name: fmt.Sprintf("n%d", n.Index), Read: n.StoreBytes}
}

func durableImage(n *cluster.Node) check.Image {
	return check.Image{Name: fmt.Sprintf("n%d-durable", n.Index), Read: n.Dev.DurableRead}
}

// liveAll is the client's image followed by every final chain member's.
func (r *chaosRig) liveAll() []check.Image {
	out := []check.Image{liveImage(r.client)}
	for _, m := range r.mgr.Members() {
		out = append(out, liveImage(m))
	}
	return out
}

func (r *chaosRig) quiesceResult(committed, errored int) check.Result {
	res := check.Result{
		Name:   "quiesce",
		Detail: fmt.Sprintf("%d committed, %d indeterminate", committed, errored),
	}
	switch {
	case !r.quiesced:
		res.Err = errors.New("workload did not quiesce before deadline")
	case r.drainErr != nil:
		res.Err = r.drainErr
	case committed == 0:
		res.Err = errors.New("no transaction committed")
	}
	return res
}

// restoreEquivalence checks that the image rebuilt from the object store's
// blobs equals the client's live window.
func (r *chaosRig) restoreEquivalence() check.Result {
	if !r.streamOK {
		return check.Result{Name: "restore-equivalence", Err: errors.New("stream never quiesced")}
	}
	return check.RestoreEquivalence(liveImage(r.client), func() ([]byte, int, uint64, error) {
		return stream.RebuildImage(r.obs.Peek, crPrefix)
	})
}

// durabilityChecks demands that every surviving member's durable image match
// its live view after the final flush — nothing the client was promised
// lives only in a volatile cache — and, given a hard-fault victim, that
// whatever the crash left on its durable media still recovers as a valid
// log: possibly truncated, never corrupt.
func (r *chaosRig) durabilityChecks(victim *cluster.Node) check.Report {
	var out check.Report
	for _, m := range r.mgr.Members() {
		out = append(out, check.RegionEqual(
			fmt.Sprintf("durable=live:n%d", m.Index), liveImage(m),
			[]check.Image{durableImage(m)}, 0, fmStoreSize))
	}
	if victim != nil {
		pm := check.WALSoundness([]check.Image{durableImage(victim)}, fmLogBase, fmLogSize)
		pm.Name = "wal-soundness-victim"
		out = append(out, pm)
	}
	return out
}
