package naive

import (
	"errors"
	"strings"
	"testing"

	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// mustPanic runs fn and fails unless it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// Op records cycle through the group's free list: a closed loop of one op
// needs two records (the callback issues the next op before its own record
// is released), and released records are poisoned.
func TestOpRecordsRecycle(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	cl.Client().StoreWrite(0, make([]byte, 256))
	left := 0
	var issue func(Result)
	issue = func(r Result) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if left--; left >= 0 {
			if err := g.GWrite(0, 256, true, issue); err != nil {
				t.Fatal(err)
			}
		}
	}
	idle := func() bool { return left < 0 }
	loop := func() {
		left = 50
		issue(Result{})
		if !eng.RunUntil(idle, eng.Now().Add(sim.Second)) {
			t.Fatal("loop stalled")
		}
	}
	loop()
	if n := len(g.freeOps); n != 2 {
		t.Fatalf("free list holds %d op records after a closed loop of one, want 2", n)
	}
	for _, o := range g.freeOps {
		if !o.released || o.done != nil {
			t.Fatalf("free record not poisoned: %+v", o)
		}
	}
	for _, r := range g.replicas {
		if n := len(r.freeHandlers); n != 1 {
			t.Fatalf("replica %d holds %d handler records after a closed loop of one, want 1", r.index, n)
		}
	}
	if n := testing.AllocsPerRun(20, loop); n != 0 {
		t.Fatalf("steady-state gWRITE loop allocates %v times per 50 ops", n)
	}
}

// Delivering an ack to a released op, or releasing one twice, is a
// lifetime bug and panics.
func TestReleasedOpPoisoned(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	done := false
	if err := g.GFlush(func(Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	run(t, eng, g, &done)
	o := g.freeOps[0]
	mustPanic(t, "released twice", func() { g.releaseOp(o) })
	g.pending.Push(o)
	mustPanic(t, "ack delivered to a released op", func() { g.onAck(rdma.CQE{Status: rdma.StatusSuccess}) })
}

// A released handler record dispatched again panics instead of re-running
// a recycled slot.
func TestReleasedHandlerPoisoned(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	done := false
	if err := g.GFlush(func(Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	run(t, eng, g, &done)
	h := g.replicas[0].freeHandlers[0]
	mustPanic(t, "released handler record dispatched", h.run)
}

// fail finishes every pending and waiting op exactly once and returns every
// record to the free list.
func TestFailReleasesEveryOp(t *testing.T) {
	_, cl, g := testGroup(t, 3, Config{Mode: Event, MaxInflight: 2})
	defer g.Close()
	cl.Client().StoreWrite(0, make([]byte, 64))
	const ops = 5
	calls := make([]int, ops)
	reason := errors.New("injected")
	for i := 0; i < ops; i++ {
		i := i
		if err := g.GWrite(0, 64, false, func(r Result) {
			calls[i]++
			if r.Err != reason {
				t.Errorf("op %d finished with %v, want the group's failure", i, r.Err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if g.pending.Len() != 2 || g.waiting.Len() != 3 {
		t.Fatalf("pending %d, waiting %d before the failure", g.pending.Len(), g.waiting.Len())
	}
	g.fail(reason)
	for i, n := range calls {
		if n != 1 {
			t.Fatalf("op %d finished %d times", i, n)
		}
	}
	if len(g.freeOps) != ops || g.pending.Len() != 0 || g.waiting.Len() != 0 {
		t.Fatalf("free %d, pending %d, waiting %d after the failure", len(g.freeOps), g.pending.Len(), g.waiting.Len())
	}
	for _, o := range g.freeOps {
		if !o.released {
			t.Fatalf("flushed record not poisoned: %+v", o)
		}
	}
}

// Result.CASOld is the op record's buffer: right inside the callback, and
// reused — with no allocation — by the next gCAS that takes the record.
func TestCASOldLivesInTheOpRecord(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	var kept []uint64
	var seen [3]uint64
	done := false
	onCAS := func(r Result) {
		if r.Err != nil || len(r.CASOld) != 3 {
			t.Fatalf("gCAS: err %v, map %v", r.Err, r.CASOld)
		}
		kept = r.CASOld
		copy(seen[:], r.CASOld)
		done = true
	}
	cas := func(old, new uint64) {
		done = false
		if err := g.GCAS(128, old, new, 0b111, onCAS); err != nil {
			t.Fatal(err)
		}
		run(t, eng, g, &done)
	}
	cas(0, 7)
	if seen != [3]uint64{0, 0, 0} {
		t.Fatalf("first gCAS saw %v", seen)
	}
	first := &kept[0]
	cas(7, 9)
	if seen != [3]uint64{7, 7, 7} {
		t.Fatalf("second gCAS saw %v", seen)
	}
	if &kept[0] != first {
		t.Fatal("second gCAS did not reuse the record's result buffer")
	}
	cas(9, 0)
	if n := testing.AllocsPerRun(100, func() { cas(0, 7); cas(7, 0) }); n != 0 {
		t.Fatalf("steady-state gCAS allocates %v times per pair", n)
	}
}

// A handler record goes back on the free list only after handle returns:
// the op's failure callback, run from inside replica 0's handle, finds the
// running record still out.
func TestHandlerRecycledAfterHandle(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	cl.Client().StoreWrite(0, make([]byte, 64))
	r := g.replicas[0]
	rq := r.up.RQTable()
	inHandle, free := false, -1
	if err := g.GWrite(0, 64, false, func(res Result) {
		inHandle, free = true, len(r.freeHandlers)
	}); err != nil {
		t.Fatal(err)
	}
	// Once the command's RECV is consumed, take its slot back so the
	// handler's re-arm overflows the receive queue and fails the group
	// from inside handle.
	if !eng.RunUntil(func() bool { return rq.Posted() < ringDepth }, eng.Now().Add(sim.Second)) {
		t.Fatal("command never reached replica 0")
	}
	if _, err := r.up.PostRecv(rdma.WQE{WRID: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(func() bool { return inHandle }, eng.Now().Add(sim.Second))
	if !inHandle || g.Failed() == nil {
		t.Fatalf("the re-arm did not fail the group from handle (failed: %v)", g.Failed())
	}
	if free != 0 {
		t.Fatalf("%d handler records free while replica 0's handle ran, want 0", free)
	}
	if len(r.freeHandlers) != 1 {
		t.Fatalf("%d handler records free after handle returned, want 1", len(r.freeHandlers))
	}
}

// The client window may not exceed the 256-slot command and RECV rings: a
// wider one lapped slots still in flight. At exactly 256 a back-to-back
// burst of 600 gCAS replicates correctly.
func TestMaxInflightBoundedByRing(t *testing.T) {
	mustPanic(t, "MaxInflight 257", func() { testGroup(t, 3, Config{Mode: Event, MaxInflight: ringDepth + 1}) })

	eng, cl, g := testGroup(t, 3, Config{Mode: Event, MaxInflight: ringDepth})
	defer g.Close()
	const ops = 600
	finished, bad := 0, 0
	for i := 0; i < ops; i++ {
		if err := g.GCAS(8*i, 0, uint64(i+1), 0b111, func(r Result) {
			finished++
			if r.Err != nil || len(r.CASOld) != 3 || r.CASOld[0] != 0 || r.CASOld[1] != 0 || r.CASOld[2] != 0 {
				bad++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(func() bool { return finished == ops || g.Failed() != nil }, eng.Now().Add(10*sim.Second))
	if g.Failed() != nil || finished != ops {
		t.Fatalf("finished %d/%d, group failed: %v", finished, ops, g.Failed())
	}
	if bad != 0 {
		t.Fatalf("%d gCAS result maps wrong", bad)
	}
	for ri, rep := range cl.Replicas() {
		for i := 0; i < ops; i++ {
			if v := le(rep.StoreBytes(8*i, 8)); v != uint64(i+1) {
				t.Fatalf("replica %d word %d = %d, want %d", ri, i, v, i+1)
			}
		}
	}
}
