package core

import (
	"testing"

	"hyperloop/internal/sim"
)

// TestPumpRetryCollision pins down the credit-starved pump's re-arm
// semantics (the pumpArmed retry timer): a retry firing in the same
// virtual instant as a completion-driven pump — or any other spurious
// wake-up — must neither double-issue an op nor strand the channel.
//
// The schedule below forces the race deterministically: loop ops reserve
// their whole retry budget up front, so with Depth=64 and Budget=63 only
// one op fits the credit window at a time and every subsequent submit
// arms the retry timer. Extra pump() calls are then injected at the
// exact instants the timer fires (10µs grid), colliding with the
// completion-driven pumps inside the engine's same-timestamp event order.
func TestPumpRetryCollision(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Depth: 64})
	ch := g.channels[chLoop]

	const ops = 4
	perOp := make([]int, ops)
	done := 0
	for i := 0; i < ops; i++ {
		i := i
		err := g.GAtomicLoop(LoopSpec{
			Off: 512 + 8*i, Kind: LoopCAS, Old: 0, New: uint64(i + 1),
			ExitWant: 0, Exec: 1 << 0, GuardReplica: 0, Budget: 63,
		}, func(r Result) {
			if r.Err != nil {
				t.Errorf("op %d: %v", i, r.Err)
			}
			perOp[i]++
			done++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Spurious wake-ups on the retry timer's own grid: if pump were not
	// idempotent under collision, these would double-issue the queued op
	// whose timer is about to fire at the same instant.
	for k := 1; k <= 20; k++ {
		eng.Schedule(sim.Duration(k)*10*sim.Microsecond, ch.pump)
	}

	if !eng.RunUntil(func() bool { return done == ops }, eng.Now().Add(sim.Second)) {
		t.Fatalf("channel stranded: done=%d of %d (waiting=%d pending=%d armed=%v)",
			done, ops, ch.waiting.Len(), ch.pending.Len(), ch.pumpArmed)
	}
	for i, n := range perOp {
		if n != 1 {
			t.Fatalf("op %d completed %d times", i, n)
		}
	}
	if ch.issued != ops {
		t.Fatalf("issued = %d, want %d (double-issue?)", ch.issued, ops)
	}
	// Let any stale retry timers fire into the idle channel.
	eng.RunFor(500 * sim.Microsecond)
	if ch.waiting.Len() != 0 || ch.pending.Len() != 0 {
		t.Fatalf("channel not quiescent: waiting=%d pending=%d", ch.waiting.Len(), ch.pending.Len())
	}
	for i := 0; i < ops; i++ {
		if w := storeWord(t, g, 0, 512+8*i); w != uint64(i+1) {
			t.Fatalf("word %d = %d", i, w)
		}
	}
}

// TestPumpRetrySurvivesStarvationWave drives the legacy (non-loop) pump
// through the same collision: more gCAS ops than the credit window admits,
// with spurious pumps injected on the retry grid. Ops must complete
// exactly once each, in order, with the channel quiescent afterwards.
func TestPumpRetrySurvivesStarvationWave(t *testing.T) {
	eng, _, g := testGroup(t, 3, Config{Depth: 8, MaxInflight: 4})
	ch := g.channels[chCAS]

	const ops = 32
	perOp := make([]int, ops)
	done := 0
	for i := 0; i < ops; i++ {
		i := i
		err := g.GCAS(512, uint64(i), uint64(i+1), AllReplicas(3), func(r Result) {
			if r.Err != nil {
				t.Errorf("op %d: %v", i, r.Err)
			}
			perOp[i]++
			done++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 50; k++ {
		eng.Schedule(sim.Duration(k)*10*sim.Microsecond, ch.pump)
	}
	if !eng.RunUntil(func() bool { return done == ops }, eng.Now().Add(sim.Second)) {
		t.Fatalf("channel stranded: done=%d of %d", done, ops)
	}
	for i, n := range perOp {
		if n != 1 {
			t.Fatalf("op %d completed %d times", i, n)
		}
	}
	if w := storeWord(t, g, 0, 512); w != ops {
		t.Fatalf("final word = %d, want %d (CAS chain broken)", w, ops)
	}
}
