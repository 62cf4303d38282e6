package txn

import (
	"bytes"
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/locks"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

const (
	logBase  = 0
	logSize  = 256 << 10
	lockBase = 900 << 10
	objBase  = 512 << 10 // object region
)

type rig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	g   *core.Group
	m   *Manager
}

func newRig(t *testing.T, replicas int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: replicas + 1, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	ready := false
	log := wal.New(wal.NodeStore{N: cl.Client()}, wal.CoreReplicator{G: g}, logBase, logSize,
		func(err error) { ready = err == nil })
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("wal init stalled")
	}
	lm := locks.New(g, eng, lockBase, locks.Config{})
	m := New(eng, log, wal.NodeStore{N: cl.Client()}, lm, Config{})
	return &rig{eng: eng, cl: cl, g: g, m: m}
}

func (r *rig) await(t *testing.T, done *bool) {
	t.Helper()
	if !r.eng.RunUntil(func() bool { return *done || r.g.Failed() != nil }, r.eng.Now().Add(10*sim.Second)) {
		t.Fatalf("commit stalled (%v)", r.g.Failed())
	}
	if r.g.Failed() != nil {
		t.Fatal(r.g.Failed())
	}
}

// TestAtomicMultiObjectCommit is the paper's Figure 1(c) example: X and Y
// must both change, on every replica, durably.
func TestAtomicMultiObjectCommit(t *testing.T) {
	r := newRig(t, 3)
	defer r.g.Close()
	tx, err := r.m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	offX, offY := objBase, objBase+4096
	tx.WriteUint64(offX, 1) // X = 1
	tx.WriteUint64(offY, 2) // Y = 2
	done := false
	if err := tx.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	r.await(t, &done)

	for i := 0; i < 3; i++ {
		rep := r.g.Replica(i)
		rep.Dev.PowerFail()
		x := le64(rep.StoreBytes(offX, 8))
		y := le64(rep.StoreBytes(offY, 8))
		if x != 1 || y != 2 {
			t.Fatalf("replica %d: X=%d Y=%d after power failure, want 1/2", i, x, y)
		}
	}
	c, a := r.m.Stats()
	if c != 1 || a != 0 {
		t.Fatalf("stats: committed=%d aborted=%d", c, a)
	}
}

func TestReadYourWrites(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	tx, _ := r.m.Begin()
	tx.Write(objBase+10, []byte("hello"))
	got := tx.Read(objBase+8, 10)
	if string(got[2:7]) != "hello" {
		t.Fatalf("read-your-writes overlay: %q", got)
	}
	// Committed store unaffected before commit.
	if string(r.cl.Client().StoreBytes(objBase+10, 5)) == "hello" {
		t.Fatal("uncommitted write leaked to the store")
	}
	tx.Abort()
	if _, a := r.m.Stats(); a != 1 {
		t.Fatal("abort not counted")
	}
}

func TestOverlappingWritesLastWins(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	tx, _ := r.m.Begin()
	tx.Write(objBase, []byte("AAAA"))
	tx.Write(objBase+2, []byte("BB"))
	done := false
	tx.Commit(func(err error) { done = err == nil })
	r.await(t, &done)
	if got := string(r.g.Replica(1).StoreBytes(objBase, 4)); got != "AABB" {
		t.Fatalf("overlap result %q, want AABB", got)
	}
}

func TestAbortedTxnHasNoEffect(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	tx, _ := r.m.Begin()
	tx.WriteUint64(objBase, 99)
	tx.Abort()
	if err := tx.Commit(nil); err != ErrTxnClosed {
		t.Fatalf("commit after abort: %v", err)
	}
	if err := tx.Write(0, []byte("x")); err != ErrTxnClosed {
		t.Fatalf("write after abort: %v", err)
	}
	r.eng.RunFor(10 * sim.Millisecond)
	if v := le64(r.g.Replica(0).StoreBytes(objBase, 8)); v != 0 {
		t.Fatalf("aborted write surfaced: %d", v)
	}
}

func TestEmptyCommitRejected(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	tx, _ := r.m.Begin()
	if err := tx.Commit(nil); err != ErrEmptyTxn {
		t.Fatalf("empty commit: %v", err)
	}
}

func TestUncommittedTxnInvisibleAfterCrash(t *testing.T) {
	// A transaction whose log record never replicated must vanish on
	// recovery — atomicity under failure.
	r := newRig(t, 3)
	defer r.g.Close()

	// First, a committed transaction to anchor the log.
	tx1, _ := r.m.Begin()
	tx1.WriteUint64(objBase, 7)
	done := false
	tx1.Commit(func(err error) { done = err == nil })
	r.await(t, &done)

	// Second transaction: sever the chain mid-commit so its record cannot
	// replicate, then inspect a replica's durable state.
	r.cl.Net.CutBoth(r.g.Replica(0).NIC.Node(), r.g.Replica(1).NIC.Node())
	tx2, _ := r.m.Begin()
	tx2.WriteUint64(objBase+8, 13)
	tx2.Commit(func(error) {})
	r.eng.RunFor(50 * sim.Millisecond)

	rep := r.g.Replica(2) // tail, beyond the cut
	rep.Dev.PowerFail()
	rec, err := wal.Recover(func(off, size int) []byte {
		return rep.Dev.DurableRead(off, size)
	}, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, record := range rec.Records {
		for _, e := range record.Entries {
			if e.Offset == objBase+8 {
				t.Fatal("unreplicated transaction visible in recovered log")
			}
		}
	}
	if v := le64(rep.StoreBytes(objBase+8, 8)); v != 0 {
		t.Fatalf("unreplicated transaction reached the data region: %d", v)
	}
	if v := le64(rep.StoreBytes(objBase, 8)); v != 7 {
		t.Fatalf("committed transaction lost: %d", v)
	}
}

func TestConcurrentDisjointTransactions(t *testing.T) {
	r := newRig(t, 3)
	defer r.g.Close()
	const n = 20
	completed := 0
	for i := 0; i < n; i++ {
		tx, err := r.m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// Disjoint stripes: spread offsets 4KB apart.
		tx.WriteUint64(objBase+i*4096, uint64(100+i))
		if err := tx.Commit(func(err error) {
			if err != nil {
				t.Errorf("txn %d: %v", i, err)
			}
			completed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.eng.RunUntil(func() bool { return completed >= n }, r.eng.Now().Add(30*sim.Second)) {
		t.Fatalf("concurrent commits stalled at %d/%d", completed, n)
	}
	for i := 0; i < n; i++ {
		for rep := 0; rep < 3; rep++ {
			if v := le64(r.g.Replica(rep).StoreBytes(objBase+i*4096, 8)); v != uint64(100+i) {
				t.Fatalf("txn %d on replica %d: %d", i, rep, v)
			}
		}
	}
	c, _ := r.m.Stats()
	if c != n {
		t.Fatalf("committed = %d, want %d", c, n)
	}
}

func TestConflictingTransactionsSerialize(t *testing.T) {
	r := newRig(t, 3)
	defer r.g.Close()
	// Both transactions read-modify-write the same counter; with proper
	// isolation the final value is the sum.
	const off = objBase + 128
	completed := 0
	increment := func() {
		tx, _ := r.m.Begin()
		// Read the committed value at commit-lock time is what a real RMW
		// would do; here the second txn starts after the first holds the
		// lock, so we re-read inside the commit by chaining: simplest
		// faithful pattern is lock-read-write via two txns issued
		// sequentially per worker.
		cur := le64(tx.Read(off, 8))
		tx.WriteUint64(off, cur+1)
		tx.Commit(func(err error) {
			if err != nil {
				t.Errorf("increment: %v", err)
			}
			completed++
		})
	}
	// Serial increments (each waits for the previous ack) — exercises lock
	// reuse on the same stripe.
	increment()
	r.eng.RunUntil(func() bool { return completed >= 1 }, r.eng.Now().Add(10*sim.Second))
	increment()
	r.eng.RunUntil(func() bool { return completed >= 2 }, r.eng.Now().Add(10*sim.Second))
	if completed != 2 {
		t.Fatalf("completed = %d", completed)
	}
	if v := le64(r.g.Replica(0).StoreBytes(off, 8)); v != 2 {
		t.Fatalf("counter = %d, want 2", v)
	}
}

func TestLockStripesSortedDeadlockFree(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	// Two transactions locking the same two stripes in opposite write
	// order must both commit (stripe acquisition is sorted).
	completed := 0
	t1, _ := r.m.Begin()
	t1.WriteUint64(objBase, 1)       // stripe A
	t1.WriteUint64(objBase+64*64, 2) // stripe B (64 words later)
	t2, _ := r.m.Begin()
	t2.WriteUint64(objBase+64*64, 3) // stripe B first
	t2.WriteUint64(objBase, 4)       // stripe A
	t1.Commit(func(err error) {
		if err != nil {
			t.Errorf("t1: %v", err)
		}
		completed++
	})
	t2.Commit(func(err error) {
		if err != nil {
			t.Errorf("t2: %v", err)
		}
		completed++
	})
	if !r.eng.RunUntil(func() bool { return completed >= 2 }, r.eng.Now().Add(30*sim.Second)) {
		t.Fatalf("possible deadlock: %d/2 committed", completed)
	}
}

func TestManagerClose(t *testing.T) {
	r := newRig(t, 2)
	defer r.g.Close()
	r.m.Close()
	if _, err := r.m.Begin(); err != ErrMgrClosed {
		t.Fatalf("begin after close: %v", err)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestOverlayInto(t *testing.T) {
	out := bytes.Repeat([]byte("."), 10)
	overlayInto(out, 100, wal.Entry{Offset: 95, Data: []byte("XXXXXXX")}) // covers 95..102
	if string(out) != "XX........" {
		t.Fatalf("left overlap: %q", out)
	}
	out = bytes.Repeat([]byte("."), 10)
	overlayInto(out, 100, wal.Entry{Offset: 108, Data: []byte("YYYY")}) // 108..112
	if string(out) != "........YY" {
		t.Fatalf("right overlap: %q", out)
	}
	out = bytes.Repeat([]byte("."), 10)
	overlayInto(out, 100, wal.Entry{Offset: 90, Data: []byte("Z")}) // disjoint
	if string(out) != ".........." {
		t.Fatalf("disjoint overlay: %q", out)
	}
}

func TestRedoRecoveryAppliesReplicatedTxns(t *testing.T) {
	// Positive counterpart to the atomicity test: a transaction whose
	// record was replicated but whose ExecuteAndAdvance never ran must be
	// redone from the log at recovery — recovery applies all-or-nothing,
	// and "all" here means all.
	r := newRig(t, 3)
	defer r.g.Close()

	// Build the transaction's record and drive only its append (the
	// durability point), modeling a coordinator crash after the ack but
	// before ExecuteAndAdvance ran.
	tx, _ := r.m.Begin()
	tx.WriteUint64(objBase, 41)
	tx.WriteUint64(objBase+64, 43)
	acked := false
	if err := r.m.log.Append(tx.writes, func(err error) { acked = err == nil }); err != nil {
		t.Fatal(err)
	}
	if !r.eng.RunUntil(func() bool { return acked }, r.eng.Now().Add(10*sim.Second)) {
		t.Fatal("append never acked")
	}

	// Crash every replica NOW: the record is in NVM, the data region is not.
	rep := r.g.Replica(2)
	rep.Dev.PowerFail()
	rec, err := wal.Recover(func(off, size int) []byte {
		return rep.Dev.DurableRead(off, size)
	}, logBase, logSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(rec.Records))
	}
	// Redo: apply the recovered record's entries to the durable image.
	state := map[int]uint64{}
	for _, record := range rec.Records {
		for _, e := range record.Entries {
			state[e.Offset] = le64(e.Data)
		}
	}
	if state[objBase] != 41 || state[objBase+64] != 43 {
		t.Fatalf("redo state: %v", state)
	}
}

// Commit state and lock ops are pooled records with completions bound once.
// Waves of contending commits over host-driven locks — retries, undos and
// backoff included — must all commit, each exactly once, and the second wave
// must run entirely on the records the first one released.
func TestPooledCommitsUnderContention(t *testing.T) {
	r := newRig(t, 3)
	defer r.g.Close()
	lm := locks.New(r.g, r.eng, lockBase, locks.Config{HostOnly: true})
	r.m = New(r.eng, r.m.log, r.m.store, lm, Config{})

	const n = 8
	wave := func(round int) {
		t.Helper()
		var fired [n]int
		completed := 0
		for i := 0; i < n; i++ {
			i := i
			tx, err := r.m.Begin()
			if err != nil {
				t.Fatal(err)
			}
			// Every txn takes the same two stripes, and its own two words.
			tx.WriteUint64(objBase+8*i, uint64(round*100+i))
			tx.WriteUint64(objBase+64+8*i, uint64(round*100+i))
			if err := tx.Commit(func(err error) {
				if err != nil {
					t.Errorf("round %d txn %d: %v", round, i, err)
				}
				fired[i]++
				completed++
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !r.eng.RunUntil(func() bool { return completed >= n }, r.eng.Now().Add(30*sim.Second)) {
			t.Fatalf("round %d stalled at %d/%d (%v)", round, completed, n, r.g.Failed())
		}
		r.eng.RunFor(sim.Millisecond)
		for i, f := range fired {
			if f != 1 {
				t.Fatalf("round %d txn %d completed %d times", round, i, f)
			}
			for rep := 0; rep < 3; rep++ {
				for _, off := range []int{objBase + 8*i, objBase + 64 + 8*i} {
					if v := le64(r.g.Replica(rep).StoreBytes(off, 8)); v != uint64(round*100+i) {
						t.Fatalf("round %d txn %d replica %d @%d: %d", round, i, rep, off, v)
					}
				}
			}
		}
	}
	wave(1)
	if _, retries, _ := lm.Stats(); retries == 0 {
		t.Fatal("no lock contention: the test is not exercising the retry path")
	}
	commits := len(r.m.freeCommits)
	if commits == 0 || commits > n {
		t.Fatalf("%d commit records on the free list after %d concurrent commits", commits, n)
	}
	wave(2)
	if got := len(r.m.freeCommits); got != commits {
		t.Fatalf("second wave grew the commit pool: %d -> %d", commits, got)
	}
	if c, a := r.m.Stats(); c != 2*n || a != 0 {
		t.Fatalf("committed %d aborted %d, want %d and 0", c, a, 2*n)
	}
}
