package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/faults"
	"hyperloop/internal/metrics"
	"hyperloop/internal/objstore"
	"hyperloop/internal/sim"
	"hyperloop/internal/stream"
)

// Cold restore: one chain replica is destroyed for good (power-fail, never
// restarted) and the chain is repaired by rebuilding the spare from the
// object store — snapshot install plus segment replay — instead of a live
// peer copy. The client's WAL Reattach covers the records the stream had not
// yet made cold-durable, so the invariant is RPO = zero acked writes lost.

// ColdRestoreParams selects one cold-restore cell. Zero SegmentBytes and
// SnapshotEvery take the scenario defaults (2 KiB segments, 25 ms
// snapshots); the RTO/RPO sweep varies both.
type ColdRestoreParams struct {
	Seed          int64
	SegmentBytes  int
	SnapshotEvery sim.Duration
}

func (p *ColdRestoreParams) fill() {
	if p.SegmentBytes <= 0 {
		p.SegmentBytes = 2 << 10
	}
	if p.SnapshotEvery <= 0 {
		p.SnapshotEvery = 25 * sim.Millisecond
	}
}

// ColdRestoreVerdict is the outcome of one cold-restore scenario.
type ColdRestoreVerdict struct {
	Params    ColdRestoreParams
	Spec      faults.ColdRestoreSpec
	Timeline  []faults.Event
	Committed int // transactions whose commit acked
	Errored   int // transactions whose commit failed (indeterminate)
	Failovers uint64
	DetectIn  sim.Duration
	// RTO is detection → chain resumed: the full repair including the stream
	// drain, the restore-from-cold, the WAL reattach, and the lock reset.
	RTO sim.Duration
	// RPOCold is the stream's durability lag when the repair began: the
	// number of log sequences that existed only on live nodes — what a total
	// site loss at that instant would have cost.
	RPOCold uint64
	// AckedLost counts acked transactions missing from the final image on an
	// exclusively-written slot. The cold-restore contract is that this is 0.
	AckedLost int
	// RestoreAttempts counts restore starts (>1 when the chaos arm killed
	// the restoring host mid-replay).
	RestoreAttempts int
	Restore         stream.RestoreStats
	Stream          stream.StreamerStats
	Store           objstore.Stats
	Judged
}

// RunColdRestoreScenario runs the chaos rig with its stream shaped by p,
// destroys the planned victim for good, and repairs the chain from the
// object store. Same params, same verdict.
func RunColdRestoreScenario(p ColdRestoreParams) ColdRestoreVerdict {
	p.fill()
	r := newChaosRig(p.Seed, "cold", p.SegmentBytes, p.SnapshotEvery)
	eng, str := r.eng, r.str

	spec := faults.PlanColdRestore(p.Seed)
	victim := r.members[spec.VictimIdx]
	// The victim dies for good: power-fail crash, restartAfter=0.
	r.plane.CrashNode(spec.FaultAt, victim, true, 0)
	if spec.KillUploader {
		eng.Schedule(spec.UploaderCrashAt, str.Crash)
		eng.Schedule(spec.UploaderCrashAt+crFlushEvery, str.Restart)
	}

	// Cold-restore repair: wait for the stream to cover every committed
	// record (the uploader keeps draining — the client is alive), then
	// rebuild the spare's window from the object store; the pending tail the
	// stream never saw rides the rig's WAL reattach.
	var rpoCold uint64
	var restoreStats stream.RestoreStats
	restoreAttempts := 0
	r.manage(func(sp *cluster.Node, rejoin func()) {
		rpoCold = str.Lag()
		var attempt func()
		attempt = func() {
			restoreAttempts++
			first := restoreAttempts == 1
			rs := stream.StartRestore(eng, r.obs, crPrefix,
				func(off int, data []byte) { sp.StoreWrite(off, data) },
				func(rs stream.RestoreStats, err error) {
					switch {
					case errors.Is(err, stream.ErrAborted):
						// The restoring host died mid-replay; a replacement
						// restarts the restore from scratch.
						attempt()
					case err != nil:
						r.fail(fmt.Errorf("restore: %w", err))
					default:
						restoreStats = rs
						rejoin()
					}
				})
			if spec.KillRestorer && first {
				eng.Schedule(spec.RestorerKillDelay, rs.Abort)
			}
		}
		// Drain the stream before restoring: every committed record must be
		// cold-durable; the appended-but-unexecuted tail rides Reattach.
		var awaitCoverage func()
		awaitCoverage = func() {
			if r.log.Executing() > 0 || str.CoveredSeq() < r.log.Seq()-uint64(r.log.Pending()) {
				eng.Schedule(100*sim.Microsecond, awaitCoverage)
				return
			}
			attempt()
		}
		awaitCoverage()
	})
	r.run(p.Seed)

	v := ColdRestoreVerdict{
		Params:          p,
		Spec:            spec,
		Timeline:        r.plane.Timeline(),
		Failovers:       r.mgr.Failovers(),
		DetectIn:        r.detectIn(spec.FaultAt),
		RPOCold:         rpoCold,
		RestoreAttempts: restoreAttempts,
		Restore:         restoreStats,
		Stream:          str.Stats(),
		Store:           r.obs.Stats(),
		Judged:          Judged{Metrics: r.reg},
	}
	v.Committed, v.Errored = r.tally()
	if at, ok := r.mgr.LastDetection(); ok && r.resumed {
		v.RTO = r.resumedAt.Sub(at)
	}
	v.AckedLost = ackedLost(r.client.StoreBytes(fmObjBase, 8*fmObjSlots), r.recs)

	rpo := check.Result{Name: "rpo-acked", Detail: fmt.Sprintf("0 of %d acked txns lost", v.Committed)}
	if v.AckedLost > 0 {
		rpo.Err = fmt.Errorf("%d acked transactions missing from the final image", v.AckedLost)
	}
	restored := check.Result{Name: "restore-path",
		Detail: fmt.Sprintf("%d attempt(s), %dB snapshot + %d segments replayed to seq %d",
			v.RestoreAttempts, v.Restore.SnapshotBytes, v.Restore.Segments, v.Restore.RestoredSeq)}
	if restoreAttempts == 0 {
		restored.Err = errors.New("restore never ran")
	} else if spec.KillRestorer && restoreAttempts < 2 {
		restored.Err = errors.New("restorer kill arm planned but only one attempt ran")
	}

	client, liveAll := liveImage(r.client), r.liveAll()
	v.Checks = append(v.Checks,
		check.Result{Name: "repair", Err: r.repairErr, Detail: "cold-restore repair path clean"},
		r.quiesceResult(v.Committed, v.Errored),
		restored,
		rpo,
		r.restoreEquivalence(),
		check.WALSoundness(liveAll, fmLogBase, fmLogSize),
		check.WALPrefix(liveAll, fmLogBase, fmLogSize),
		check.LocksFree(liveAll, fmLockBase, fmLockStripes),
		check.RegionEqual("object-converge", client, liveAll[1:], fmObjBase, crWindowSize),
		check.TxnAtomicity(client, fmObjBase, fmObjSlots, r.txns()),
		check.Membership(v.Failovers, true, r.mgr.Paused(),
			len(liveAll)-1, fmMembers, v.DetectIn, chaosDetectBound, chaosChainCfg.HeartbeatEvery),
		check.SpanConservation(r.rec),
	)
	// Victim post-mortem: the power-failed durable log must still recover.
	v.Checks = append(v.Checks, r.durabilityChecks(victim)...)
	return v
}

// ackedLost counts acked transactions whose exclusively-written slots are
// missing from the image — the acked-write RPO, which must be zero.
func ackedLost(buf []byte, recs []*check.TxnRecord) int {
	writers := make(map[int]int)
	for _, tx := range recs {
		for _, s := range tx.Slots {
			writers[s]++
		}
	}
	lost := 0
	for _, tx := range recs {
		if !tx.Acked {
			continue
		}
		for _, s := range tx.Slots {
			if writers[s] == 1 && binary.LittleEndian.Uint64(buf[8*s:]) != tx.ID {
				lost++
				break
			}
		}
	}
	return lost
}

// coldRestoreAt runs the default-shaped cold-restore scenario planned for
// seed.
func coldRestoreAt(seed int64) ColdRestoreVerdict {
	return RunColdRestoreScenario(ColdRestoreParams{Seed: seed})
}

func (v ColdRestoreVerdict) row() []string {
	chaos := "-"
	switch {
	case v.Spec.KillUploader && v.Spec.KillRestorer:
		chaos = "uploader+restorer"
	case v.Spec.KillUploader:
		chaos = "uploader"
	case v.Spec.KillRestorer:
		chaos = "restorer"
	}
	return []string{fmt.Sprint(v.Spec.Seed), fmt.Sprintf("r%d", v.Spec.VictimIdx),
		fmt.Sprint(v.Spec.FaultAt), chaos, fmt.Sprint(v.RTO),
		fmt.Sprint(v.RPOCold), fmt.Sprint(v.AckedLost),
		fmt.Sprint(v.RestoreAttempts), v.Checks.Summary()}
}

func (v ColdRestoreVerdict) detail(e *Env) { printDetail(e, v.Spec, v.Timeline, v.Checks) }

// RestoreCell is one point of the RTO/RPO sweep.
type RestoreCell struct {
	SegmentBytes  int
	SnapshotEvery sim.Duration
	Verdict       ColdRestoreVerdict
}

// RestoreSweep runs one cold-restore scenario per (segment size × snapshot
// interval) cell, all on the same seed, so the table isolates the stream
// shape: smaller segments tighten RPO-cold (less un-uploaded tail) while
// tighter snapshots shorten the replay half of RTO.
func RestoreSweep(seed int64, segBytes []int, snapEvery []sim.Duration) []RestoreCell {
	params := make([]ColdRestoreParams, 0, len(segBytes)*len(snapEvery))
	for _, sb := range segBytes {
		for _, se := range snapEvery {
			params = append(params, ColdRestoreParams{Seed: seed, SegmentBytes: sb, SnapshotEvery: se})
		}
	}
	out, _ := RunParallel(Parallelism(), len(params), func(i int) (RestoreCell, error) {
		return RestoreCell{
			SegmentBytes:  params[i].SegmentBytes,
			SnapshotEvery: params[i].SnapshotEvery,
			Verdict:       RunColdRestoreScenario(params[i]),
		}, nil
	})
	return out
}

func (c RestoreCell) Pass() bool                  { return c.Verdict.Pass() }
func (c RestoreCell) registry() *metrics.Registry { return c.Verdict.Metrics }

func (c RestoreCell) row() []string {
	v := c.Verdict
	return []string{fmt.Sprintf("%dKiB", c.SegmentBytes>>10), fmt.Sprint(c.SnapshotEvery),
		fmt.Sprint(v.RTO), fmt.Sprint(v.RPOCold), fmt.Sprint(v.AckedLost),
		fmt.Sprint(v.RestoreAttempts), fmt.Sprint(v.Stream.Segments),
		fmt.Sprint(v.Stream.Snapshots), fmt.Sprint(v.Stream.Retries), v.Checks.Summary()}
}

func (c RestoreCell) detail(e *Env) {
	printDetail[string](e, fmt.Sprintf("seg=%d snap=%v", c.SegmentBytes, c.SnapshotEvery), nil, c.Verdict.Checks)
}

// Sweep axes of `hl restore`: segment size changes replay chunking, snapshot
// interval changes how much tail the restore replays on top of the baseline
// image.
var (
	sweepSegBytes  = []int{1 << 10, 4 << 10, 16 << 10}
	sweepSnapEvery = []sim.Duration{10 * sim.Millisecond, 40 * sim.Millisecond}
	offloadChains  = []int{2, 3, 5}
)

// restoreScenario runs the ephemeral-replica plane in three sections: the
// headline cold-restore scenario (the checks table is the verdict: RPO over
// acked commits must be zero), the RTO/RPO sweep across segment-size x
// snapshot-interval cells, and the CRAQ read-offload scaling tables.
func restoreScenario(e *Env) error {
	v := RunColdRestoreScenario(ColdRestoreParams{Seed: e.Seed})
	e.Merge(v.Metrics)
	e.Printf("=== Cold restore: %v ===\n", v.Spec)
	e.Printf("detect=%v rto=%v rpo-cold=%d acked-lost=%d attempts=%d txns=%d/%d\n",
		v.DetectIn, v.RTO, v.RPOCold, v.AckedLost, v.RestoreAttempts, v.Committed, v.Errored)
	e.Printf("restore: %dB snapshot + %d segments (%d records) to seq %d in %v\n",
		v.Restore.SnapshotBytes, v.Restore.Segments, v.Restore.Records,
		v.Restore.RestoredSeq, v.Restore.Elapsed)
	e.Printf("stream: %d segments, %d snapshots, %d records, %d retries\n",
		v.Stream.Segments, v.Stream.Snapshots, v.Stream.Records, v.Stream.Retries)
	e.Checks(v.Checks)
	if e.Verbose || !v.Pass() {
		for _, ev := range v.Timeline {
			e.Printf("    %v\n", ev)
		}
	}

	printVerdicts(e, fmt.Sprintf("RTO/RPO sweep: %d segment sizes x %d snapshot intervals (seed %d)",
		len(sweepSegBytes), len(sweepSnapEvery), e.Seed),
		RestoreSweep(e.Seed, sweepSegBytes, sweepSnapEvery),
		"segment", "snapshot", "rto", "rpo-cold", "acked-lost", "attempts", "segs", "snaps", "retries", "checks")

	for _, wl := range []string{"B", "D"} {
		printVerdicts(e, fmt.Sprintf("Read offload: YCSB-%s, chains %v (seed %d)", wl, offloadChains, e.Seed),
			ReadOffloadSweep(wl, offloadChains, e.Seed, e.EngineWorkers),
			"chain", "tail kops/s", "spread kops/s", "speedup", "clean/dirty (spread)", "tail p50", "spread p50")
	}

	if e.failed > 0 {
		e.Printf("%d checks FAILED\n", e.failed)
	} else {
		e.Println("all checks passed")
	}
	return nil
}
