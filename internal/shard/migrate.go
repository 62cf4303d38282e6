package shard

import (
	"fmt"

	"hyperloop/internal/core"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Live shard migration.
//
// A shard moves between replica sets in five phases, all on the virtual
// clock and all through the group primitives:
//
//  1. quiesce  — PauseCommits on the shard's kvstore and wait for the
//     in-flight ExecuteAndAdvance to drain (CommitIdle). Appends keep
//     flowing to the source chain; only WAL *execution* stops, so the data
//     region below the allocation point is frozen.
//  2. bulk     — a destination group is built over the new hosts and the
//     allocated data region [DataBase, next) is copied in ChunkBytes
//     chunks of durable gWRITEs. The front-end's own window is the source
//     of truth, so the copy needs no source-chain cooperation and survives
//     a source-replica crash.
//  3. fence    — the shard's epoch word is bumped locally and pushed to
//     the destination with a durable gWRITE. The ack is the cutover fence:
//     from here the destination owns the epoch.
//  4. catch-up — the WAL is re-pointed at the destination group via
//     kvstore.Reattach (wal.Reattach bumps the generation, fencing every
//     ack still in flight from the source chain with ErrRetargeted, and
//     re-replicates the header plus all pending records). Records appended
//     during phases 1–3 therefore land on the destination and execute
//     there via gMEMCPY when commits resume.
//  5. cutover  — routing flips: the Map places the shard on the new hosts,
//     replica reads re-arm against the destination, the source group
//     closes, commits resume.
//
// A destination failure before the fence aborts cleanly: the destination
// group is closed, commits resume, and the shard stays on the source.
// After the fence the destination owns the shard; the migration completes
// through Reattach exactly like a recovery.

// quiescePoll is how often the migrator re-checks CommitIdle.
const quiescePoll = sim.Duration(200)

// migration tracks one in-flight shard move.
type migration struct {
	p         *Plane
	s         *Shard
	destHosts []int
	dest      core.Backend
	copyBase  int
	copyEnd   int
	chunks    int
	done      func(error)
}

// Migrate moves shard sid onto destHosts (indexes into the host pool) with
// a live, epoch-fenced migration. done fires when the cutover is complete
// (or the migration aborted). Returns an error synchronously only for
// invalid arguments.
func (p *Plane) Migrate(sid int, destHosts []int, done func(error)) error {
	if !p.open {
		return ErrNotOpen
	}
	if sid < 0 || sid >= len(p.shards) {
		return ErrBadShard
	}
	s := p.shards[sid]
	if s.migrating {
		return ErrMigrating
	}
	if len(destHosts) != p.cfg.Replicas {
		return fmt.Errorf("%w: want %d hosts, got %d", ErrBadDest, p.cfg.Replicas, len(destHosts))
	}
	seen := make(map[int]bool, len(destHosts))
	for _, h := range destHosts {
		if h < 0 || h >= len(p.pool) {
			return fmt.Errorf("%w: host %d out of pool", ErrBadDest, h)
		}
		if seen[h] {
			return fmt.Errorf("%w: host %d repeated (anti-affinity)", ErrBadDest, h)
		}
		seen[h] = true
	}
	if err := p.validateTiers(destHosts); err != nil {
		return err
	}
	s.migrating = true
	m := &migration{p: p, s: s, destHosts: append([]int(nil), destHosts...), done: done}
	p.note("shard %d: migrate %v -> %v: quiesce", sid, s.replicas, destHosts)
	s.db.PauseCommits()
	m.quiesce()
	return nil
}

// quiesce waits for the paused store's executor to go idle.
func (m *migration) quiesce() {
	if !m.s.db.CommitIdle() {
		m.p.Eng.Schedule(quiescePoll, m.quiesce)
		return
	}
	m.bulk()
}

// bulk builds the destination group and streams the allocated data region
// across in durable gWRITE chunks.
func (m *migration) bulk() {
	p, s := m.p, m.s
	m.dest = p.newBackend(m.destHosts)
	m.copyBase, m.copyEnd = s.db.DataUsed()
	p.note("shard %d: bulk copy [%#x,%#x) (%d bytes, %d-byte chunks)",
		s.ID, m.copyBase, m.copyEnd, m.copyEnd-m.copyBase, p.cfg.ChunkBytes)
	m.copyChunk(m.copyBase)
}

func (m *migration) copyChunk(off int) {
	if off >= m.copyEnd {
		m.p.note("shard %d: bulk copy done (%d chunks)", m.s.ID, m.chunks)
		m.fence()
		return
	}
	size := m.copyEnd - off
	if size > m.p.cfg.ChunkBytes {
		size = m.p.cfg.ChunkBytes
	}
	m.chunks++
	m.destWrite(off, size, func(err error) {
		if err != nil {
			m.abort(fmt.Errorf("shard %d: bulk copy at %#x: %w", m.s.ID, off, err))
			return
		}
		m.copyChunk(off + size)
	})
}

// destWrite issues one durable gWRITE on the destination group.
func (m *migration) destWrite(off, size int, done func(error)) {
	wal.CoreReplicator{G: m.dest}.Write(off, size, true, func(res core.Result) { done(res.Err) })
}

// fence bumps the epoch word locally and pushes it durably to the
// destination; the ack is the cutover point.
func (m *migration) fence() {
	p, s := m.p, m.s
	if err := p.validateTiers(m.destHosts); err != nil {
		// A host was re-tiered during the bulk copy and the destination
		// chain no longer satisfies the tier constraint. The epoch word has
		// not moved yet, so this aborts as cleanly as a dest failure.
		m.abort(fmt.Errorf("shard %d: fence: %w", s.ID, err))
		return
	}
	next := s.epoch + 1
	p.client.StoreWrite(s.base+epochOff, epochBytes(next))
	p.note("shard %d: epoch fence %d -> %d", s.ID, s.epoch, next)
	m.destWrite(s.base+epochOff, 8, func(err error) {
		if err != nil {
			// The fence never reached the destination: the source still owns
			// the epoch. Roll the local word back and abort.
			p.client.StoreWrite(s.base+epochOff, epochBytes(s.epoch))
			m.abort(fmt.Errorf("shard %d: epoch fence: %w", s.ID, err))
			return
		}
		m.cutover(next)
	})
}

// cutover flips ownership to the destination and replays the WAL tail.
func (m *migration) cutover(epoch uint64) {
	p, s := m.p, m.s
	old := s.rep.G
	oldHosts := s.replicas
	s.epoch = epoch
	if p.cfg.Spans != nil {
		// The fence: spans issued against the previous epoch must not
		// straddle this instant unmarked (check.SpanConservation).
		p.cfg.Spans.Fence(s.ID, epoch)
	}
	for _, h := range oldHosts {
		if !contains(m.destHosts, h) {
			s.former[h] = true
		}
	}
	for _, h := range m.destHosts {
		delete(s.former, h)
	}
	s.rep.G = m.dest
	s.replicas = append([]int(nil), m.destHosts...)
	if err := p.Map.Place(s.ID, m.destHosts); err != nil {
		// Arguments were validated up front; a failure here is a bug.
		panic(err)
	}
	p.note("shard %d: cutover to %v (epoch %d), WAL catch-up %d pending",
		s.ID, m.destHosts, epoch, s.db.PendingCommits())
	s.db.Reattach(s.rep, func(err error) {
		if err != nil {
			// Destination died after taking the epoch. The shard is down
			// until an operator re-migrates it; do not fall back to the
			// source — it lost the fence.
			p.note("shard %d: catch-up failed: %v", s.ID, err)
			m.finish(fmt.Errorf("shard %d: WAL catch-up: %w", s.ID, err))
			return
		}
		s.db.ResetReplicaReads()
		s.db.EnableReplicaReads(p.client, p.hostNodes(m.destHosts))
		old.Close()
		s.migrations++
		p.note("shard %d: migration complete (epoch %d)", s.ID, epoch)
		m.finish(nil)
	})
}

// abort tears the destination down and leaves the shard on the source.
func (m *migration) abort(err error) {
	m.p.note("shard %d: migration aborted: %v", m.s.ID, err)
	if m.dest != nil {
		m.dest.Close()
	}
	m.finish(err)
}

// finish resumes commits and reports the outcome.
func (m *migration) finish(err error) {
	m.s.migrating = false
	m.s.db.ResumeCommits()
	if m.done != nil {
		m.done(err)
	}
}

func contains(a []int, x int) bool {
	for _, v := range a {
		if v == x {
			return true
		}
	}
	return false
}
