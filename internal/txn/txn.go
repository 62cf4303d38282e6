// Package txn implements the replicated ACID transactions of §2.1 over the
// HyperLoop building blocks: a transaction is a set of object writes that
// must commit atomically on every replica.
//
// The protocol is the paper's Figure 1(c) pipeline, with every replica-side
// step offloaded to NICs:
//
//	Atomicity   — all writes of a transaction form ONE redo-log record
//	              (wal.Append = gWRITE+gFLUSH); recovery replays complete
//	              records only (CRC + sequence), so partial transactions
//	              never surface.
//	Consistency — commits apply in log order via ExecuteAndAdvance
//	              (gMEMCPY+gFLUSH per entry, then a durable head advance).
//	Isolation   — a group write lock (gCAS) covers the objects during
//	              commit; readers take per-replica read locks.
//	Durability  — the commit point is the log-record ack: every replica
//	              has the record in NVM before the client proceeds.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/core"
	"hyperloop/internal/locks"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Errors.
var (
	ErrTxnClosed   = errors.New("txn: transaction already committed or aborted")
	ErrMgrClosed   = errors.New("txn: manager closed")
	ErrEmptyTxn    = errors.New("txn: transaction has no writes")
	ErrLockTimeout = errors.New("txn: could not acquire object locks")
	ErrFenced      = errors.New("txn: commit fenced by epoch change")
)

// Fencer is the predicated-gWRITE surface the conditional-commit fence
// rides on; *core.Group satisfies it.
type Fencer interface {
	GWriteIf(off, size, guardOff int, want, mask uint64, done func(core.Result)) error
}

// Manager coordinates transactions over a shared store window: a WAL for
// redo records, a lock table for object isolation, and an object region the
// committed values land in.
type Manager struct {
	eng   *sim.Engine
	log   *wal.Log
	store wal.Store
	locks *locks.Manager
	owner uint64

	// lockStripes maps object offsets onto lock words.
	lockStripes int

	// Conditional-commit fence (nil = unfenced).
	fence      Fencer
	fenceOff   int
	fenceEpoch func() uint64

	freeCommits []*commitOp // finished commit records, reused by newCommit

	committed uint64
	aborted   uint64
	fenced    uint64
	closed    bool
}

// Config sizes a Manager.
type Config struct {
	// LockStripes is the lock-table width; object offsets hash onto
	// stripes (default 64).
	LockStripes int
	// Owner identifies this coordinator in lock words (default 1).
	Owner uint64

	// Fence, when non-nil, arms the conditional-commit fence: after the
	// object locks are held but before the redo record is appended, the
	// coordinator stamps FenceEpoch() at FenceOff+8 on every replica via a
	// predicated gWRITE guarded by the replica-local epoch word at
	// FenceOff. A replica whose epoch moved past the coordinator's view
	// (a failover it hasn't observed) suppresses the stamp, the commit
	// aborts with ErrFenced, and no redo record is ever made durable.
	Fence Fencer
	// FenceOff is the store offset of the 8-byte epoch guard word; the
	// stamp word lives at FenceOff+8.
	FenceOff int
	// FenceEpoch returns the coordinator's current view of the chain
	// epoch (e.g. chain.Manager.Epoch). Defaults to a constant 1.
	FenceEpoch func() uint64
}

// New creates a transaction manager. log must be an initialized replicated
// WAL over store; lm covers a lock table of at least LockStripes words.
func New(eng *sim.Engine, log *wal.Log, store wal.Store, lm *locks.Manager, cfg Config) *Manager {
	if cfg.LockStripes <= 0 {
		cfg.LockStripes = 64
	}
	if cfg.Owner == 0 {
		cfg.Owner = 1
	}
	if cfg.FenceEpoch == nil {
		cfg.FenceEpoch = func() uint64 { return 1 }
	}
	return &Manager{
		eng:         eng,
		log:         log,
		store:       store,
		locks:       lm,
		owner:       cfg.Owner,
		lockStripes: cfg.LockStripes,
		fence:       cfg.Fence,
		fenceOff:    cfg.FenceOff,
		fenceEpoch:  cfg.FenceEpoch,
	}
}

// Stats returns (committed, aborted).
func (m *Manager) Stats() (uint64, uint64) { return m.committed, m.aborted }

// Fenced counts commits aborted by the epoch fence.
func (m *Manager) Fenced() uint64 { return m.fenced }

// Close rejects further transactions.
func (m *Manager) Close() { m.closed = true }

// Txn is one in-flight transaction. Writes buffer locally; Commit makes
// them atomic, isolated, and durable across the group.
type Txn struct {
	m      *Manager
	writes []wal.Entry
	closed bool
}

// Begin starts a transaction.
func (m *Manager) Begin() (*Txn, error) {
	if m.closed {
		return nil, ErrMgrClosed
	}
	return &Txn{m: m}, nil
}

// Write buffers a modification: data will be placed at offset in every
// replica's store when the transaction commits. Overlapping writes within
// one transaction apply in order.
func (t *Txn) Write(offset int, data []byte) error {
	if t.closed {
		return ErrTxnClosed
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	t.writes = append(t.writes, wal.Entry{Offset: offset, Data: buf})
	return nil
}

// WriteUint64 buffers an 8-byte little-endian value.
func (t *Txn) WriteUint64(offset int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return t.Write(offset, b[:])
}

// Read returns the transaction's view of [offset, offset+size): buffered
// writes overlay the committed store (read-your-writes).
func (t *Txn) Read(offset, size int) []byte {
	out := t.m.store.ReadLocal(offset, size)
	for _, w := range t.writes {
		overlayInto(out, offset, w)
	}
	return out
}

// overlayInto applies the overlapping part of w onto out (which covers
// [base, base+len(out))).
func overlayInto(out []byte, base int, w wal.Entry) {
	lo := w.Offset
	hi := w.Offset + len(w.Data)
	if hi <= base || lo >= base+len(out) {
		return
	}
	src := 0
	dst := lo - base
	if dst < 0 {
		src = -dst
		dst = 0
	}
	copy(out[dst:], w.Data[src:min(len(w.Data), src+len(out)-dst)])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// stripes appends to out the distinct, sorted lock stripes the transaction's
// writes touch (sorted to avoid deadlocks between concurrent coordinators).
func (t *Txn) stripes(out []int) []int {
next:
	for _, w := range t.writes {
		s := (w.Offset / 64) % t.m.lockStripes
		for _, seen := range out {
			if seen == s {
				continue next
			}
		}
		out = append(out, s)
	}
	// Insertion sort: stripe counts are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Abort discards the transaction (nothing was shared yet, so this is
// purely local).
func (t *Txn) Abort() {
	if !t.closed {
		t.closed = true
		t.m.aborted++
	}
}

// Commit makes the transaction durable and applied on every replica:
//
//  1. acquire the group write locks covering the touched objects (gCAS);
//  2. if a Fence is configured, stamp the coordinator's epoch through a
//     predicated gWRITE guarded by each replica's epoch word — a replica
//     that moved past our view fences the commit (ErrFenced) before
//     anything is made durable;
//  3. append one redo record holding every write (gWRITE+gFLUSH) — the
//     durability point: done's success means all-or-nothing recovery;
//  4. execute the record (gMEMCPY+gFLUSH per write + head advance);
//  5. release the locks.
//
// done fires after step 5 with the first error, if any. On lock failure
// or a fence the transaction aborts without side effects.
func (t *Txn) Commit(done func(error)) error {
	if t.closed {
		return ErrTxnClosed
	}
	if len(t.writes) == 0 {
		return ErrEmptyTxn
	}
	t.closed = true
	c := t.m.newCommit()
	c.writes, c.done = t.writes, done
	c.stripes = t.stripes(c.stripes[:0])
	c.acquire(0)
	return nil
}

// commitOp is one Commit in flight: the state its steps hand from one group
// operation's completion to the next. Records are pooled per manager and
// every step is a func bound once, when the record is first created, so a
// commit allocates nothing of its own in steady state.
type commitOp struct {
	m       *Manager
	writes  []wal.Entry
	stripes []int
	done    func(error)
	cursor  int   // stripe being locked (acquire) or unlocked (release)
	err     error // the commit's outcome, carried across the release
	uerr    error // first unlock error, reported when err is nil
	want    uint64

	onLocked, onUnlocked, onAppended, onExecuted func(error)
	onFenced                                     func(core.Result)
	retryExecute                                 func()
}

func (m *Manager) newCommit() *commitOp {
	if n := len(m.freeCommits); n > 0 {
		c := m.freeCommits[n-1]
		m.freeCommits = m.freeCommits[:n-1]
		return c
	}
	c := &commitOp{m: m}
	c.onLocked, c.onUnlocked, c.onAppended, c.onExecuted = c.locked, c.unlocked, c.appended, c.executed
	c.onFenced, c.retryExecute = c.fenced, c.execute
	return c
}

// acquire is step 1: take the stripes in order, from stripe i on.
func (c *commitOp) acquire(i int) {
	if i >= len(c.stripes) {
		c.fenceGate()
		return
	}
	c.cursor = i
	c.m.locks.WrLock(c.stripes[i], c.m.owner, c.onLocked)
}

func (c *commitOp) locked(err error) {
	if err != nil {
		c.release(c.cursor, fmt.Errorf("%w: stripe %d: %v", ErrLockTimeout, c.stripes[c.cursor], err))
		return
	}
	c.acquire(c.cursor + 1)
}

// fenceGate is step 2, the conditional-commit fence. The stamp word
// (FenceOff+8) carries the epoch we are committing under; the predicated
// gWRITE lands it only where the replica-local guard word (FenceOff) still
// equals that epoch. Any mismatch means a failover this coordinator has not
// observed — abort before the redo record exists anywhere.
func (c *commitOp) fenceGate() {
	m := c.m
	if m.fence == nil {
		c.apply()
		return
	}
	c.want = m.fenceEpoch()
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], c.want)
	m.store.WriteLocal(m.fenceOff+8, stamp[:])
	if err := m.fence.GWriteIf(m.fenceOff+8, 8, m.fenceOff, c.want, 0, c.onFenced); err != nil {
		c.release(len(c.stripes), err)
	}
}

func (c *commitOp) fenced(r core.Result) {
	if r.Err != nil {
		c.release(len(c.stripes), r.Err)
		return
	}
	for i, obs := range r.CASOld {
		if obs != c.want {
			c.m.fenced++
			c.release(len(c.stripes), fmt.Errorf("%w: replica %d at epoch %d, coordinator at %d",
				ErrFenced, i, obs, c.want))
			return
		}
	}
	c.apply()
}

// apply is step 3: the redo record, under the locks.
func (c *commitOp) apply() {
	if err := c.m.log.Append(c.writes, c.onAppended); err != nil {
		c.release(len(c.stripes), err)
	}
}

func (c *commitOp) appended(err error) {
	if err != nil {
		c.release(len(c.stripes), err)
		return
	}
	c.execute()
}

// execute is step 4. ExecuteAndAdvance commits the oldest unexecuted record,
// which may belong to a concurrent disjoint transaction — that is safe
// (records apply in log order, and every record's owner still holds its
// stripes until its own commit completes) but means a head record whose
// replication ack is still in flight surfaces as ErrNotReady: retry shortly
// rather than abort.
func (c *commitOp) execute() {
	switch err := c.m.log.ExecuteAndAdvance(c.onExecuted); err {
	case nil:
	case wal.ErrNotReady:
		c.m.eng.Schedule(5*sim.Microsecond, c.retryExecute)
	case wal.ErrEmpty:
		// A concurrent commit already executed our record.
		c.release(len(c.stripes), nil)
	default:
		c.release(len(c.stripes), err)
	}
}

func (c *commitOp) executed(err error) { c.release(len(c.stripes), err) }

// release is step 5: drop the first held stripes in reverse order, then
// finish with err — or, when the commit itself succeeded, with the first
// unlock error.
func (c *commitOp) release(held int, err error) {
	c.err, c.uerr = err, nil
	c.cursor = held
	c.unlocked(nil)
}

func (c *commitOp) unlocked(err error) {
	if c.uerr == nil {
		c.uerr = err
	}
	c.cursor--
	if c.cursor >= 0 {
		c.m.locks.WrUnlock(c.stripes[c.cursor], c.m.owner, c.onUnlocked)
		return
	}
	m, done, err := c.m, c.done, c.err
	if err == nil {
		err = c.uerr
	}
	if err == nil {
		m.committed++
	} else {
		m.aborted++
	}
	if done != nil {
		done(err)
	}
	c.writes, c.done, c.err, c.uerr = nil, nil, nil, nil
	m.freeCommits = append(m.freeCommits, c)
}
