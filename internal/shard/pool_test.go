package shard

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// A put refused synchronously (ring full: commits never run here, so the
// log only fills) releases its record on the spot and never fires done.
func TestRefusedPutReleasesRecord(t *testing.T) {
	eng, p := testPlane(t, Config{Shards: 1, Replicas: 3, Hosts: 3, Seed: 5,
		LogSize: 4096, CommitEvery: 1 << 30})
	defer p.Close()
	for i := 0; i < 200; i++ {
		free := len(p.putFree)
		fired := 0
		_, err := p.Put(fmt.Sprintf("bp-%04d", i), []byte("vvvvvvvv"), func(error) { fired++ })
		if err == wal.ErrLogFull {
			if got := len(p.putFree); got != free {
				t.Fatalf("refused put moved the free list %d -> %d", free, got)
			}
			eng.RunFor(sim.Second)
			if fired != 0 {
				t.Fatalf("refused put fired done %d times", fired)
			}
			return
		} else if err != nil {
			t.Fatalf("put: %v", err)
		}
		if !eng.RunUntil(func() bool { return fired == 1 }, eng.Now().Add(sim.Second)) {
			t.Fatalf("put %d never acked", i)
		}
	}
	t.Fatal("ring never filled")
}

// A put record is poisoned when its ack releases it: a second completion
// delivered to it panics instead of firing the recycled record's done.
func TestReleasedPutRecordPoisoned(t *testing.T) {
	eng, p := testPlane(t, Config{Shards: 1, Replicas: 3, Hosts: 3, Seed: 5})
	defer p.Close()
	fired := 0
	if _, err := p.Put("k", []byte("v"), func(error) { fired++ }); err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(func() bool { return fired == 1 }, eng.Now().Add(sim.Second)) {
		t.Fatal("put never acked")
	}
	if len(p.putFree) != 1 {
		t.Fatalf("free list holds %d records after one ack, want 1", len(p.putFree))
	}
	r := p.putFree[0]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released put record") {
			t.Fatalf("completing a released put record: panic %v, want the poison check's", r)
		}
		if fired != 1 {
			t.Fatalf("stale completion fired done (%d)", fired)
		}
	}()
	r.ack(nil)
}
