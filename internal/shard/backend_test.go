package shard

import (
	"encoding/binary"
	"fmt"
	"testing"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
)

// naiveBackend is the Naive-RDMA arm as a BackendFunc; built counts
// constructor calls so tests can see who asked for a group.
func naiveBackend(built *int) BackendFunc {
	return func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend {
		*built++
		return naive.NewWithNodes(eng, client, chain, naive.Config{Mode: naive.Event})
	}
}

// A Naive-backed plane is the same plane: it opens, serves puts, and
// live-migrates a shard onto a destination group built through the same
// constructor, with every key safe and every shard's WAL sound afterwards.
func TestNaiveBackedPlaneServesAndMigrates(t *testing.T) {
	built := 0
	const shards = 2
	eng, p := testPlane(t, Config{
		Shards: shards, Replicas: 3, Hosts: 8,
		ChunkBytes: 2048, Seed: 11,
		NewBackend: naiveBackend(&built),
	})
	defer p.Close()
	if built != shards {
		t.Fatalf("constructor ran %d times at open, want one per shard (%d)", built, shards)
	}
	for s := 0; s < shards; s++ {
		if _, ok := p.Shard(s).Backend().(*naive.Group); !ok {
			t.Fatalf("shard %d backend is %T, want *naive.Group", s, p.Shard(s).Backend())
		}
	}

	// Values carry their sequence number so the rebuilt regions can be
	// checked against the client-side model.
	model := map[string]check.KeyModel{}
	seq := uint64(0)
	val := func(k string) []byte {
		seq++
		model[k] = check.KeyModel{Acked: seq}
		return binary.LittleEndian.AppendUint64(nil, seq)
	}
	const sid = 0
	keys := append(keysFor(p, 0, 60), keysFor(p, 1, 20)...)
	putAll(t, eng, p, keys, val)

	dest := freeHosts(p, sid, 3)
	migDone, migErr := false, error(nil)
	if err := p.Migrate(sid, dest, func(err error) { migDone, migErr = true, err }); err != nil {
		t.Fatal(err)
	}
	// Puts racing the migration ride the WAL catch-up onto the destination.
	racing := keysFor(p, sid, 80)[60:]
	putAll(t, eng, p, racing, val)
	if !eng.RunUntil(func() bool { return migDone }, eng.Now().Add(10*sim.Second)) {
		t.Fatal("migration stalled")
	}
	if migErr != nil {
		t.Fatalf("migration failed: %v", migErr)
	}
	if built != shards+1 {
		t.Fatalf("constructor ran %d times, want %d (the destination group comes from it too)", built, shards+1)
	}
	s := p.Shard(sid)
	if s.Epoch() != 1 || fmt.Sprint(s.Replicas()) != fmt.Sprint(dest) {
		t.Fatalf("epoch=%d replicas=%v, want 1 / %v", s.Epoch(), s.Replicas(), dest)
	}
	if _, ok := s.Backend().(*naive.Group); !ok {
		t.Fatalf("migrated shard backend is %T, want *naive.Group", s.Backend())
	}
	if b, o := p.FusionStats(); b != 0 || o != 0 {
		t.Fatalf("naive chains reported fusion (%d, %d)", b, o)
	}

	committed := false
	p.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	if !eng.RunUntil(func() bool { return committed }, eng.Now().Add(10*sim.Second)) {
		t.Fatal("commit stalled")
	}

	contents := map[int]map[string]uint64{}
	for sh := 0; sh < shards; sh++ {
		owners := p.Shard(sh).Replicas()
		rebuilt, err := kvstore.Rebuild(p.Pool()[owners[len(owners)-1]].StoreBytes, p.RegionConfig(sh))
		if err != nil {
			t.Fatalf("shard %d rebuild from its tail: %v", sh, err)
		}
		contents[sh] = map[string]uint64{}
		for k, v := range rebuilt {
			contents[sh][k] = binary.LittleEndian.Uint64(v)
		}
		var imgs []check.Image
		for _, h := range owners {
			imgs = append(imgs, check.Image{Name: fmt.Sprintf("s%d/h%d", sh, h), Read: p.Pool()[h].StoreBytes})
		}
		rc := p.RegionConfig(sh)
		if r := check.WALSoundness(imgs, rc.LogBase, rc.LogSize); !r.Pass() {
			t.Fatalf("shard %d: %v", sh, r)
		}
	}
	if r := check.ShardedKeys(p.Map.Route, contents, model); !r.Pass() {
		t.Fatal(r)
	}
}
