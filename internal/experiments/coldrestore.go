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
	Checks          check.Report
	Metrics         *metrics.Registry
}

// Pass reports whether every invariant check passed.
func (v ColdRestoreVerdict) Pass() bool { return v.Checks.AllPass() }

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
		Metrics:         r.reg,
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

// ColdRestoreMatrix runs n cold-restore scenarios seeded baseSeed..+n-1,
// fanned over the worker pool, verdicts in seed order.
func ColdRestoreMatrix(baseSeed int64, n int) []ColdRestoreVerdict {
	out, _ := RunParallel(Parallelism(), n, func(i int) (ColdRestoreVerdict, error) {
		return RunColdRestoreScenario(ColdRestoreParams{Seed: baseSeed + int64(i)}), nil
	})
	return out
}

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
