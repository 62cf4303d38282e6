// Package locks implements HyperLoop's group locking (§4.2, §5 "Locking
// and Isolation"): single-writer/multiple-reader locks whose state lives in
// each replica's NVM and is manipulated exclusively with gCAS — so lock
// acquisition and release never involve replica CPUs.
//
// Lock-word layout (8 bytes, little endian):
//
//	bit 63      writer bit
//	bits 48-62  writer id (15 bits)
//	bits 0-47   reader count
//
// A writer acquires by CAS(0 → writerBit|id) on every replica; a partial
// acquisition (some replicas already locked) is undone via the execute map,
// exactly the paper's undo idiom. A reader registers on one replica only
// (the one it will read from), incrementing that replica's reader count
// with a CAS retry loop.
//
// When the group implements LoopCASer (core.Group does), the retry loops
// are NOT host-bounced: acquisition posts one NIC-resident WQE program
// (core.GAtomicLoop) whose CAS → compare → conditional-re-doorbell chain
// retries on the NIC with capped exponential backoff, and the host hears
// only the final verdict. Writers run the program against replica 0 first —
// contending writers serialize there, so the remaining replicas are claimed
// by a nearly uncontended host gCAS sweep. Readers run a guarded
// fetch-and-add program on their one replica: the increment executes only
// while the writer bit is clear, so a blocked reader never leaves phantom
// registrations behind. Set Config.HostOnly to force the legacy
// host-driven loops (the baseline arm in experiments).
package locks

import (
	"errors"
	"fmt"

	"hyperloop/internal/core"
	"hyperloop/internal/sim"
)

// Lock-word fields.
const (
	writerBit   = uint64(1) << 63
	writerShift = 48
	readerMask  = (uint64(1) << writerShift) - 1
)

// Word composes a lock word.
func Word(writer uint64, readers uint64) uint64 {
	if writer != 0 {
		return writerBit | (writer&0x7fff)<<writerShift | (readers & readerMask)
	}
	return readers & readerMask
}

// HasWriter reports whether a lock word carries the writer bit.
func HasWriter(w uint64) bool { return w&writerBit != 0 }

// Readers extracts the reader count.
func Readers(w uint64) uint64 { return w & readerMask }

// Errors.
var (
	ErrNotHeld  = errors.New("locks: lock not held by this owner")
	ErrGaveUp   = errors.New("locks: acquisition retries exhausted")
	ErrBadOwner = errors.New("locks: owner id must be in [1, 32767]")
)

// CASer is the group-CAS surface the manager needs (satisfied by
// *core.Group).
type CASer interface {
	GCAS(off int, old, new uint64, exec core.ExecuteMap, done func(core.Result)) error
	GroupSize() int
}

// LoopCASer extends CASer with the NIC-resident retry-loop primitive. When
// the manager's group satisfies it, acquisition loops run as posted WQE
// programs instead of host-bounced retries.
type LoopCASer interface {
	CASer
	GAtomicLoop(spec core.LoopSpec, done func(core.Result)) error
}

// Config tunes retry behaviour.
type Config struct {
	// MaxRetries bounds acquisition attempts (default 64). Exactly
	// MaxRetries CAS attempts are made before ErrGaveUp.
	MaxRetries int
	// Backoff is the first retry's delay, doubled per retry up to 64×
	// (default 5µs).
	Backoff sim.Duration
	// HostOnly forces the legacy host-driven retry loops even when the
	// group supports NIC-resident programs.
	HostOnly bool
}

func (c *Config) fill() {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 64
	}
	if c.Backoff <= 0 {
		c.Backoff = 5 * sim.Microsecond
	}
}

// Manager coordinates locks stored at lockBase + 8*lock within the shared
// store window.
type Manager struct {
	g        CASer
	eng      *sim.Engine
	cfg      Config
	lockBase int

	freeOps []*wrOp // finished host-driven write-lock ops, reused by newWrOp

	acquires uint64
	retries  uint64
	undos    uint64
}

// New creates a lock manager over a group. Lock i's word lives at
// lockBase + 8*i in every store.
func New(g CASer, eng *sim.Engine, lockBase int, cfg Config) *Manager {
	cfg.fill()
	return &Manager{g: g, eng: eng, cfg: cfg, lockBase: lockBase}
}

// Stats returns (acquisitions, retries, undo operations).
func (m *Manager) Stats() (uint64, uint64, uint64) { return m.acquires, m.retries, m.undos }

func (m *Manager) off(lock int) int { return m.lockBase + 8*lock }

// backoffDelay is the single clamp for host-driven retry pacing: retry
// `attempt` (1-based) waits Backoff<<min(attempt-1, 6), i.e. the base delay
// on the first retry, doubling per retry, capped at 64×. The NIC-resident
// programs implement the same schedule in timer-CQ ticks.
func (m *Manager) backoffDelay(attempt int) sim.Duration {
	return m.cfg.Backoff << uint(minInt(attempt-1, 6))
}

// loopGroup returns the group's NIC-program surface, or nil when
// unavailable or disabled.
func (m *Manager) loopGroup() LoopCASer {
	if m.cfg.HostOnly {
		return nil
	}
	lg, ok := m.g.(LoopCASer)
	if !ok {
		return nil
	}
	return lg
}

// wrOp is one host-driven write-lock acquisition or release in flight: the
// state the retry loop carries between group operations. Records are pooled
// per manager and their completions are bound once, when the record is first
// created, so a lock or unlock — however many rounds it takes — allocates
// nothing in steady state. A gCAS result map is only valid inside its
// callback (core.Result); every step reads the words it needs there.
type wrOp struct {
	m       *Manager
	lock    int
	want    uint64          // the owner's lock word
	exec    core.ExecuteMap // replicas the CAS in flight targets
	attempt int
	done    func(error)

	onCAS, onUndo, onUnlock func(core.Result)
	retry                   func()
}

func (m *Manager) newWrOp(lock int, owner uint64, done func(error)) *wrOp {
	var op *wrOp
	if n := len(m.freeOps); n > 0 {
		op = m.freeOps[n-1]
		m.freeOps = m.freeOps[:n-1]
	} else {
		op = &wrOp{m: m}
		op.onCAS, op.onUndo, op.onUnlock, op.retry = op.casDone, op.undoDone, op.unlockDone, op.retryAll
	}
	op.lock, op.want, op.attempt, op.done = lock, Word(owner, 0), 0, done
	return op
}

// finish reports the op's outcome and recycles the record.
func (op *wrOp) finish(err error) {
	done := op.done
	op.done = nil
	done(err)
	op.m.freeOps = append(op.m.freeOps, op)
}

func (m *Manager) all() core.ExecuteMap { return core.AllReplicas(m.g.GroupSize()) }

// WrLock acquires the group-wide exclusive write lock for owner (a nonzero
// id < 2^15). done receives nil on success.
func (m *Manager) WrLock(lock int, owner uint64, done func(error)) {
	if owner == 0 || owner > 0x7fff {
		done(ErrBadOwner)
		return
	}
	if lg := m.loopGroup(); lg != nil {
		m.wrLockNIC(lg, lock, owner, done)
		return
	}
	m.newWrOp(lock, owner, done).try(m.all())
}

// try attempts CAS(0 → want) on the replicas in exec.
func (op *wrOp) try(exec core.ExecuteMap) {
	op.exec = exec
	if err := op.m.g.GCAS(op.m.off(op.lock), 0, op.want, exec, op.onCAS); err != nil {
		op.finish(err)
	}
}

func (op *wrOp) retryAll() { op.try(op.m.all()) }

func (op *wrOp) casDone(res core.Result) {
	m := op.m
	if res.Err != nil {
		op.finish(res.Err)
		return
	}
	// Which replicas did we just acquire?
	var won core.ExecuteMap
	allWon := true
	for i, orig := range res.CASOld {
		if !op.exec.Has(i) {
			continue
		}
		if orig == 0 {
			won |= 1 << uint(i)
		} else {
			allWon = false
		}
	}
	if allWon {
		m.acquires++
		op.finish(nil)
		return
	}
	// Partial acquisition: undo the won subset, back off, retry on all
	// replicas (the paper's execute-map undo).
	if won == 0 {
		op.proceed()
		return
	}
	m.undos++
	if err := m.g.GCAS(m.off(op.lock), op.want, 0, won, op.onUndo); err != nil {
		op.finish(err)
	}
}

func (op *wrOp) undoDone(res core.Result) {
	if res.Err != nil {
		op.finish(res.Err)
		return
	}
	op.proceed()
}

// proceed schedules the next acquisition round, or gives up.
func (op *wrOp) proceed() {
	m := op.m
	op.attempt++
	if op.attempt >= m.cfg.MaxRetries {
		op.finish(ErrGaveUp)
		return
	}
	m.retries++
	m.eng.Schedule(m.backoffDelay(op.attempt), op.retry)
}

// wrLockNIC acquires the write lock with the retry loop offloaded: one
// posted WQE program spins CAS(0 → want) on replica 0 with NIC-side capped
// backoff. Contending writers serialize on replica 0, so once the program
// wins, the remaining replicas are claimed by an ordinary host gCAS sweep
// that only ever waits out draining readers — won replicas are kept across
// rounds (monotone progress; writer-writer livelock is impossible because
// at most one writer is past replica 0).
func (m *Manager) wrLockNIC(lg LoopCASer, lock int, owner uint64, done func(error)) {
	want := Word(owner, 0)
	err := lg.GAtomicLoop(core.LoopSpec{
		Off: m.off(lock), Kind: core.LoopCAS, Old: 0, New: want,
		ExitWant: 0, ExitMask: 0, // full-word compare: exit once the CAS observed 0
		Exec: 1 << 0, GuardReplica: 0,
		Budget: m.cfg.MaxRetries - 1,
	}, func(res core.Result) {
		if res.Attempts > 1 {
			m.retries += uint64(res.Attempts - 1)
		}
		switch {
		case res.Err == core.ErrRetriesExhausted:
			done(ErrGaveUp)
		case res.Err != nil:
			done(res.Err)
		default:
			m.wrLockRest(lock, want, 1<<0, done)
		}
	})
	if err != nil {
		done(err)
	}
}

// wrLockRest completes a write acquisition whose replica-0 word is already
// held: CAS the remaining replicas, keeping every win across retry rounds,
// and on exhaustion undo everything held (including replica 0).
func (m *Manager) wrLockRest(lock int, want uint64, won core.ExecuteMap, done func(error)) {
	all := m.all()
	attempt := 0

	var try func(exec core.ExecuteMap)
	try = func(exec core.ExecuteMap) {
		if exec == 0 {
			m.acquires++
			done(nil)
			return
		}
		err := m.g.GCAS(m.off(lock), 0, want, exec, func(res core.Result) {
			if res.Err != nil {
				done(res.Err)
				return
			}
			for i, orig := range res.CASOld {
				if exec.Has(i) && orig == 0 {
					won |= 1 << uint(i)
				}
			}
			remaining := all &^ won
			if remaining == 0 {
				m.acquires++
				done(nil)
				return
			}
			attempt++
			if attempt >= m.cfg.MaxRetries {
				m.undos++
				uerr := m.g.GCAS(m.off(lock), want, 0, won, func(ur core.Result) {
					if ur.Err != nil {
						done(ur.Err)
						return
					}
					done(ErrGaveUp)
				})
				if uerr != nil {
					done(uerr)
				}
				return
			}
			m.retries++
			m.eng.Schedule(m.backoffDelay(attempt), func() { try(remaining) })
		})
		if err != nil {
			done(err)
		}
	}
	try(all &^ won)
}

// WrUnlock releases the write lock held by owner on all replicas.
func (m *Manager) WrUnlock(lock int, owner uint64, done func(error)) {
	op := m.newWrOp(lock, owner, done)
	if err := m.g.GCAS(m.off(lock), op.want, 0, m.all(), op.onUnlock); err != nil {
		op.finish(err)
	}
}

func (op *wrOp) unlockDone(res core.Result) {
	if res.Err != nil {
		op.finish(res.Err)
		return
	}
	for _, orig := range res.CASOld {
		if orig != op.want {
			op.finish(fmt.Errorf("%w: word=%x", ErrNotHeld, orig))
			return
		}
	}
	op.finish(nil)
}

// RdLock registers a reader on a single replica, allowing a consistent
// read from that replica while writers are excluded there. Readers on
// different replicas proceed concurrently — that is how HyperLoop lets all
// replicas serve reads (§5).
func (m *Manager) RdLock(lock, replica int, done func(error)) {
	if lg := m.loopGroup(); lg != nil {
		// One posted program: a fetch-and-add on the reader-count field
		// guarded by the writer bit — the increment never executes while a
		// writer holds the word (no phantom registrations to undo), and the
		// NIC re-arms itself with capped backoff until the bit clears.
		err := lg.GAtomicLoop(core.LoopSpec{
			Off: m.off(lock), Kind: core.LoopMaskFAdd,
			Add: 1, FieldMask: readerMask, GuardWant: 0, GuardMask: writerBit,
			ExitWant: 0, ExitMask: writerBit,
			Exec: core.ExecuteMap(1) << uint(replica), GuardReplica: replica,
			Budget: m.cfg.MaxRetries - 1,
		}, func(res core.Result) {
			if res.Attempts > 1 {
				m.retries += uint64(res.Attempts - 1)
			}
			switch {
			case res.Err == core.ErrRetriesExhausted:
				done(ErrGaveUp)
			case res.Err != nil:
				done(res.Err)
			default:
				done(nil)
			}
		})
		if err != nil {
			done(err)
		}
		return
	}
	m.casLoopOnReplica(lock, replica, func(cur uint64) (uint64, bool) {
		if HasWriter(cur) {
			return 0, false // writer active: back off and retry
		}
		return cur + 1, true
	}, done)
}

// RdUnlock drops a reader registration on a replica.
func (m *Manager) RdUnlock(lock, replica int, done func(error)) {
	m.casLoopOnReplica(lock, replica, func(cur uint64) (uint64, bool) {
		if Readers(cur) == 0 {
			return 0, false
		}
		return cur - 1, true
	}, done)
}

// casLoopOnReplica retries CAS on one replica until update succeeds. update
// maps the current word to the desired word, or reports not-ready (retry
// after backoff).
func (m *Manager) casLoopOnReplica(lock, replica int, update func(uint64) (uint64, bool), done func(error)) {
	exec := core.ExecuteMap(1) << uint(replica)
	attempt := 0
	expected := uint64(0)

	var try func()
	try = func() {
		next, ready := update(expected)
		if !ready {
			attempt++
			if attempt >= m.cfg.MaxRetries {
				done(ErrGaveUp)
				return
			}
			m.retries++
			// Re-probe by attempting a no-change CAS to learn the word.
			m.eng.Schedule(m.backoffDelay(attempt), func() {
				probe := m.g.GCAS(m.off(lock), expected, expected, exec, func(res core.Result) {
					if res.Err != nil {
						done(res.Err)
						return
					}
					expected = res.CASOld[replica]
					try()
				})
				if probe != nil {
					done(probe)
				}
			})
			return
		}
		err := m.g.GCAS(m.off(lock), expected, next, exec, func(res core.Result) {
			if res.Err != nil {
				done(res.Err)
				return
			}
			orig := res.CASOld[replica]
			if orig == expected {
				done(nil)
				return
			}
			// Lost a race: adopt the observed value and retry.
			attempt++
			if attempt >= m.cfg.MaxRetries {
				done(ErrGaveUp)
				return
			}
			m.retries++
			expected = orig
			try()
		})
		if err != nil {
			done(err)
		}
	}
	try()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
