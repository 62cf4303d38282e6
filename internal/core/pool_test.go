package core

import (
	"testing"

	"hyperloop/internal/sim"
)

// Op records cycle through the group's free list: a closed loop of one op
// needs two records (the callback issues the next op before its own record
// is released) and allocates nothing once they exist.
func TestOpRecordsRecycle(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Depth: 64})
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
	loop() // past the first replenish round: scratch and queues are at size
	if n := testing.AllocsPerRun(20, loop); n != 0 {
		t.Fatalf("steady-state gWRITE loop allocates %v times per 50 ops", n)
	}
}

// Finishing (or timing out) a released op is a lifetime bug and panics.
func TestReleasedOpPoisoned(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Depth: 64})
	done := false
	if err := g.GFlush(func(Result) { done = true }); err != nil {
		t.Fatal(err)
	}
	run(t, eng, g, &done)
	o := g.freeOps[0]
	for name, fn := range map[string]func(){
		"finish": func() { g.channels[chFlush].finish(o, nil) },
		"Fire":   o.Fire,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a released op did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Result.CASOld is the op record's buffer: right inside the callback, and
// reused — with no allocation — by the next gCAS that takes the record.
func TestCASOldLivesInTheOpRecord(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Depth: 64})
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
		if err := g.GCAS(128, old, new, AllReplicas(3), onCAS); err != nil {
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

// A failed group finishes every queued and in-flight op exactly once, through
// the same release path.
func TestFailAllReleasesEveryOp(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Depth: 16, MaxInflight: 2, OpTimeout: sim.Millisecond})
	cl.Net.CutBoth(g.Replica(0).NIC.Node(), g.Replica(1).NIC.Node())
	cl.Client().StoreWrite(0, make([]byte, 64))
	finished := 0
	for i := 0; i < 6; i++ { // 2 in flight, 4 queued behind MaxInflight
		if err := g.GWrite(0, 64, false, func(r Result) {
			if r.Err == nil {
				t.Error("op succeeded across a cut chain")
			}
			finished++
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(func() bool { return g.Failed() != nil }, eng.Now().Add(sim.Second))
	if finished != 6 || len(g.freeOps) != 6 {
		t.Fatalf("%d of 6 ops finished, %d records released", finished, len(g.freeOps))
	}
	if err := g.GWrite(0, 64, false, nil); err == nil {
		t.Fatal("issue after failure succeeded")
	}
	if len(g.freeOps) != 6 {
		t.Fatalf("a refused submit leaked its record: %d free", len(g.freeOps))
	}
}
