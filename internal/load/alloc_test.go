package load

import (
	"fmt"
	"testing"

	"hyperloop/internal/sim"
)

// A served put allocates nothing of its own once the pools are warm: Offer →
// drain → Server.Put → shard → kvstore → wal → group → ack → complete, on a
// one-group HyperLoop plane, with pre-built keys and values. Steady-state
// puts overwrite existing keys, so the memtable copies in place.
func TestServedPutAllocFree(t *testing.T) {
	srv, err := OpenHyperLoop(ServerConfig{Groups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	eng := srv.PE().Partition(0)
	acked, failed := 0, 0
	a := NewAdmission(eng, AdmissionConfig{}, nil,
		func(key string, val []byte, done func(error)) { srv.Put(0, key, val, done) },
		func(_ *Op, err error) {
			if err != nil {
				failed++
			}
			acked++
		})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%03d", i)
	}
	val := make([]byte, 128)
	want, i := 0, 0
	settled := func() bool { return acked == want }
	op := func() {
		want++
		a.Offer(keys[i%len(keys)], val, 0)
		i++
		if !eng.RunUntil(settled, eng.Now().Add(sim.Second)) {
			t.Fatalf("put %d did not complete", want)
		}
	}
	for j := 0; j < 2000; j++ { // past the first ring laps: every pool is warm
		op()
	}
	got := testing.AllocsPerRun(1000, op)
	if failed != 0 {
		t.Fatalf("%d puts failed", failed)
	}
	if got > 0 {
		t.Errorf("a served put allocates %v/op, want 0", got)
	}
}
