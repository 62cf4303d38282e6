package kvstore

import (
	"bytes"
	"fmt"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
	"testing"
)

// --- slot encoding ---

func TestSlotRoundTrip(t *testing.T) {
	img := bytes.Repeat([]byte{0xEE}, imageSize(5, 64)) // a dirty stretch of ring
	encodeSlot(img, "mykey", []byte("myvalue"), 64, flagValid)
	if !bytes.Equal(img[slotHdr+5+7:], make([]byte, 64-7)) || !bytes.Equal(img[12:slotHdr], make([]byte, 4)) {
		t.Fatal("encodeSlot left old bytes in the image's padding")
	}
	key, val, vcap, flags, total, err := decodeSlot(img)
	if err != nil {
		t.Fatal(err)
	}
	if key != "mykey" || string(val) != "myvalue" || vcap != 64 || flags != flagValid {
		t.Fatalf("round trip: %q %q %d %d", key, val, vcap, flags)
	}
	if total != slotHdr+5+64 {
		t.Fatalf("total = %d", total)
	}
}

func TestSlotCorruption(t *testing.T) {
	img := make([]byte, imageSize(1, 16))
	encodeSlot(img, "k", []byte("v"), 16, flagValid)
	img[0] = 0
	if _, _, _, _, _, err := decodeSlot(img); err != ErrCorruptSlot {
		t.Fatalf("bad magic: %v", err)
	}
	if _, _, _, _, _, err := decodeSlot(make([]byte, 4)); err != ErrCorruptSlot {
		t.Fatalf("short buffer: %v", err)
	}
}

// --- local (unreplicated) DB tests ---

type memStore struct{ buf []byte }

func newMemStore(n int) *memStore                   { return &memStore{buf: make([]byte, n)} }
func (m *memStore) WriteLocal(off int, data []byte) { copy(m.buf[off:], data) }
func (m *memStore) Window(off, size int) []byte     { return m.buf[off : off+size] }
func (m *memStore) Persist(off, size int)           {}
func (m *memStore) ReadLocal(off, size int) []byte {
	out := make([]byte, size)
	copy(out, m.buf[off:off+size])
	return out
}

func localDB(t *testing.T, cfg Config) (*DB, *memStore) {
	t.Helper()
	st := newMemStore(32 << 20)
	db := Open(st, wal.LocalReplicator{Stores: []wal.Store{st}}, cfg, nil)
	return db, st
}

func TestPutGetDelete(t *testing.T) {
	db, _ := localDB(t, Config{})
	acked := 0
	db.Put("alpha", []byte("one"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		acked++
	})
	db.Put("beta", []byte("two"), func(error) { acked++ })
	if acked != 2 {
		t.Fatalf("acked = %d (local replicator is synchronous)", acked)
	}
	if v, ok := db.Get("alpha"); !ok || string(v) != "one" {
		t.Fatalf("get alpha: %q %v", v, ok)
	}
	db.Delete("alpha", nil)
	if _, ok := db.Get("alpha"); ok {
		t.Fatal("deleted key readable")
	}
	if db.Size() != 1 {
		t.Fatalf("size = %d", db.Size())
	}
	// Deleting a missing key is a no-op that still acks.
	ok := false
	db.Delete("ghost", func(err error) { ok = err == nil })
	if !ok {
		t.Fatal("delete of missing key did not ack")
	}
}

func TestUpdateInPlace(t *testing.T) {
	db, _ := localDB(t, Config{})
	db.Put("k", []byte("v1"), nil)
	before := db.next
	db.Put("k", []byte("v2"), nil)
	if db.next != before {
		t.Fatal("same-size update allocated a new slot")
	}
	if v, _ := db.Get("k"); string(v) != "v2" {
		t.Fatalf("value = %q", v)
	}
}

// An empty put reads back as an empty, non-nil value — present, not absent.
func TestEmptyValueReadsBackNonNil(t *testing.T) {
	db, _ := localDB(t, Config{})
	db.Put("e", nil, nil)
	db.Put("f", []byte("full"), nil)
	db.Put("f", []byte{}, nil)
	for _, k := range []string{"e", "f"} {
		if v, ok := db.Get(k); !ok || v == nil || len(v) != 0 {
			t.Fatalf("Get(%q) = %v (nil %v), %v", k, v, v == nil, ok)
		}
	}
}

func TestLargeValueGrowsSlot(t *testing.T) {
	db, _ := localDB(t, Config{})
	big := bytes.Repeat([]byte("x"), 4000)
	if err := db.Put("big", big, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get("big"); !bytes.Equal(v, big) {
		t.Fatal("large value mangled")
	}
}

func TestKeyTooLarge(t *testing.T) {
	db, _ := localDB(t, Config{})
	long := string(bytes.Repeat([]byte("k"), 300))
	if err := db.Put(long, []byte("v"), nil); err != ErrKeyTooLarge {
		t.Fatalf("long key: %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	db, _ := localDB(t, Config{DataSize: 4096})
	var err error
	for i := 0; i < 100; i++ {
		err = db.Put(fmt.Sprintf("k%d", i), []byte("v"), nil)
		if err != nil {
			break
		}
	}
	if err != ErrOutOfSpace {
		t.Fatalf("expected out of space, got %v", err)
	}
}

func TestClosedRejects(t *testing.T) {
	db, _ := localDB(t, Config{})
	db.Close()
	if err := db.Put("k", []byte("v"), nil); err != ErrClosed {
		t.Fatalf("put on closed db: %v", err)
	}
	if err := db.Delete("k", nil); err != ErrClosed {
		t.Fatalf("delete on closed db: %v", err)
	}
}

func TestScanAcrossKeys(t *testing.T) {
	db, _ := localDB(t, Config{})
	for i := 0; i < 50; i++ {
		db.Put(fmt.Sprintf("user%04d", i), []byte("v"), nil)
	}
	out := db.Scan("user0010", 10)
	if len(out) != 10 || out[0].Key != "user0010" || out[9].Key != "user0019" {
		t.Fatalf("scan: %d results, first %s", len(out), out[0].Key)
	}
}

func TestRebuildFromLocalImage(t *testing.T) {
	db, st := localDB(t, Config{})
	for i := 0; i < 20; i++ {
		db.Put(fmt.Sprintf("key%02d", i), []byte(fmt.Sprintf("val%02d", i)), nil)
	}
	db.Delete("key05", nil)
	db.Put("key07", []byte("updated"), nil)
	done := false
	db.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	if !done {
		t.Fatal("commit did not finish synchronously on local replicator")
	}
	got, err := Rebuild(st.ReadLocal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 19 {
		t.Fatalf("rebuilt %d keys, want 19", len(got))
	}
	if string(got["key07"]) != "updated" {
		t.Fatalf("key07 = %q", got["key07"])
	}
	if _, ok := got["key05"]; ok {
		t.Fatal("deleted key resurrected")
	}
}

// --- replicated DB over HyperLoop ---

func hyperDB(t *testing.T, n int) (*sim.Engine, *core.Group, *DB) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: n + 1, StoreSize: 32 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	ready := false
	db := Open(wal.NodeStore{N: cl.Client()}, wal.CoreReplicator{G: g},
		Config{LogSize: 1 << 20, DataSize: 8 << 20}, func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			ready = true
		})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("open never completed")
	}
	return eng, g, db
}

func TestReplicatedPutsDurableOnAllReplicas(t *testing.T) {
	eng, g, db := hyperDB(t, 3)
	defer g.Close()

	const keys = 30
	acked := 0
	for i := 0; i < keys; i++ {
		err := db.Put(fmt.Sprintf("key%03d", i), []byte(fmt.Sprintf("value-%03d", i)), func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			acked++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !eng.RunUntil(func() bool { return acked >= keys || g.Failed() != nil }, eng.Now().Add(10*sim.Second)) {
		t.Fatalf("acked=%d failed=%v", acked, g.Failed())
	}
	// Drain commits so the data regions converge.
	committed := false
	db.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	if !eng.RunUntil(func() bool { return committed || g.Failed() != nil }, eng.Now().Add(10*sim.Second)) {
		t.Fatalf("commit stalled: %v", g.Failed())
	}

	// Crash all replicas; rebuild each from durable bytes and verify.
	for r := 0; r < 3; r++ {
		node := g.Replica(r)
		node.Dev.PowerFail()
		got, err := Rebuild(func(off, size int) []byte {
			return node.Dev.DurableRead(off, size)
		}, Config{LogSize: 1 << 20, DataSize: 8 << 20})
		if err != nil {
			t.Fatalf("replica %d rebuild: %v", r, err)
		}
		if len(got) != keys {
			t.Fatalf("replica %d rebuilt %d keys, want %d", r, len(got), keys)
		}
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key%03d", i)
			if string(got[k]) != fmt.Sprintf("value-%03d", i) {
				t.Fatalf("replica %d key %s = %q", r, k, got[k])
			}
		}
	}
}

func TestAckImpliesDurabilityEvenWithoutCommit(t *testing.T) {
	// The RocksDB ack point is WAL replication: even if no ExecuteAndAdvance
	// ran, acked writes must be recoverable from the replicated log.
	eng, g, db := hyperDB(t, 3)
	defer g.Close()
	db.cfg.CommitEvery = 1 << 30 // disable auto-commit

	acked := false
	db.Put("precious", []byte("ackd-then-crashed"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		acked = true
	})
	if !eng.RunUntil(func() bool { return acked }, eng.Now().Add(sim.Second)) {
		t.Fatal("put never acked")
	}
	if db.PendingCommits() == 0 {
		t.Fatal("test setup: record should be uncommitted")
	}
	node := g.Replica(2) // tail
	node.Dev.PowerFail()
	got, err := Rebuild(func(off, size int) []byte {
		return node.Dev.DurableRead(off, size)
	}, Config{LogSize: 1 << 20, DataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["precious"]) != "ackd-then-crashed" {
		t.Fatalf("acked write lost: %q", got["precious"])
	}
}

func TestWriteBatchAtomic(t *testing.T) {
	eng, g, db := hyperDB(t, 3)
	defer g.Close()
	db.Put("seed", []byte("v"), nil)

	b := db.Batch().
		Put("batch-a", []byte("alpha")).
		Put("batch-b", []byte("beta")).
		Delete("seed")
	if b.Len() != 3 {
		t.Fatalf("batch len = %d", b.Len())
	}
	acked := false
	if err := b.Commit(func(err error) { acked = err == nil }); err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(func() bool { return acked }, eng.Now().Add(sim.Second)) {
		t.Fatal("batch commit stalled")
	}
	if _, ok := db.Get("seed"); ok {
		t.Fatal("batched delete not applied")
	}
	if v, _ := db.Get("batch-a"); string(v) != "alpha" {
		t.Fatalf("batch-a = %q", v)
	}

	// The whole batch is ONE log record: crash recovery sees all of it.
	node := g.Replica(2)
	node.Dev.PowerFail()
	got, err := Rebuild(func(off, size int) []byte {
		return node.Dev.DurableRead(off, size)
	}, Config{LogSize: 1 << 20, DataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["batch-a"]) != "alpha" || string(got["batch-b"]) != "beta" {
		t.Fatalf("batch writes lost: %v", got)
	}
	if _, ok := got["seed"]; ok {
		t.Fatal("batched delete resurrected on recovery")
	}
}

func TestWriteBatchEmptyAndErrors(t *testing.T) {
	db, _ := localDB(t, Config{})
	acked := false
	if err := db.Batch().Commit(func(err error) { acked = err == nil }); err != nil || !acked {
		t.Fatal("empty batch should ack immediately")
	}
	long := string(bytes.Repeat([]byte("k"), 300))
	if err := db.Batch().Put(long, []byte("v")).Commit(nil); err != ErrKeyTooLarge {
		t.Fatalf("batch with bad key: %v", err)
	}
	// Delete of a missing key inside a batch is a silent no-op.
	if err := db.Batch().Delete("ghost").Commit(nil); err != nil {
		t.Fatalf("batch ghost delete: %v", err)
	}
}

func TestVolatileModeSkipsDurability(t *testing.T) {
	// §7 RAMCloud-like semantics: acks mean replicated, not durable.
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: 4, StoreSize: 32 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	defer g.Close()
	ready := false
	db := Open(wal.NodeStore{N: cl.Client()}, wal.CoreReplicator{G: g},
		Config{LogSize: 1 << 20, DataSize: 8 << 20, Volatile: true, CommitEvery: 1 << 30},
		func(err error) { ready = err == nil })
	eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second))

	acked := false
	db.Put("ramcloud", []byte("in-memory-only"), func(err error) { acked = err == nil })
	eng.RunUntil(func() bool { return acked }, eng.Now().Add(sim.Second))
	if !acked {
		t.Fatal("volatile put stalled")
	}
	// Replicated: the live view on every replica has the record...
	rep := g.Replica(2)
	rec, err := wal.Recover(func(off, size int) []byte { return rep.StoreBytes(off, size) }, 0, 1<<20)
	if err != nil || len(rec.Records) != 1 {
		t.Fatalf("live log: %d records err=%v", len(rec.Records), err)
	}
	// ...but power failure loses it (no flush happened).
	rep.Dev.PowerFail()
	rec, err = wal.Recover(func(off, size int) []byte { return rep.Dev.DurableRead(off, size) }, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatal("volatile-mode write survived power failure")
	}
}

func TestGetFromReplica(t *testing.T) {
	eng, g, db := hyperDB(t, 3)
	defer g.Close()
	// The hyperDB helper hides the cluster; rebuild read paths through the
	// group's node accessors.
	client := g.Client()
	replicas := []*cluster.Node{g.Replica(0), g.Replica(1), g.Replica(2)}
	db.EnableReplicaReads(client, replicas)

	acked := false
	db.Put("shared-key", []byte("committed-value"), func(err error) { acked = err == nil })
	eng.RunUntil(func() bool { return acked }, eng.Now().Add(sim.Second))
	committed := false
	db.Commit(func(err error) { committed = err == nil })
	eng.RunUntil(func() bool { return committed }, eng.Now().Add(10*sim.Second))
	if !committed {
		t.Fatal("commit stalled")
	}

	for r := 0; r < 3; r++ {
		var got []byte
		var rerr error
		done := false
		db.GetFromReplica("shared-key", r, func(v []byte, err error) {
			got, rerr = v, err
			done = true
		})
		eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
		if rerr != nil || string(got) != "committed-value" {
			t.Fatalf("replica %d read: %q %v", r, got, rerr)
		}
	}

	// A key appended but not committed reads as stale on replicas.
	db.cfg.CommitEvery = 1 << 30
	acked = false
	db.Put("fresh-key", []byte("uncommitted"), func(err error) { acked = err == nil })
	eng.RunUntil(func() bool { return acked }, eng.Now().Add(sim.Second))
	done := false
	var rerr error
	db.GetFromReplica("fresh-key", 1, func(v []byte, err error) { rerr = err; done = true })
	eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
	if rerr != ErrStale {
		t.Fatalf("uncommitted key from replica: %v", rerr)
	}

	// Missing key.
	done = false
	db.GetFromReplica("ghost", 0, func(v []byte, err error) { rerr = err; done = true })
	eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
	if rerr != ErrNotFound {
		t.Fatalf("ghost key: %v", rerr)
	}
}
