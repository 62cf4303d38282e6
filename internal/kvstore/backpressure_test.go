package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"hyperloop/internal/wal"
)

// backCfg keeps the WAL ring tiny and withholds commits: the synchronous
// local replicator acks every append instantly, so the only way to fill the
// ring is to stop the commit policy from draining it behind our back.
func backCfg() Config {
	return Config{LogSize: 4096, CommitEvery: 1 << 30}
}

// fillRing puts fresh keys until the WAL refuses one, returning the acked
// keys and the refused key.
func fillRing(t *testing.T, db *DB, prefix string) (acked []string, refused string) {
	t.Helper()
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s-%04d", prefix, i)
		err := db.Put(key, []byte("val-"+key), nil)
		if err == nil {
			acked = append(acked, key)
			continue
		}
		if err != wal.ErrLogFull {
			t.Fatalf("put %q: %v", key, err)
		}
		if len(acked) == 0 {
			t.Fatal("ring refused the very first put")
		}
		return acked, key
	}
}

// A refused Put must leave no allocated-unlogged hole: the slot it carved is
// all zeros, and recovery's slot scan stops at the first non-slot header, so
// a leaked slot would hide every key allocated after it (the PR 4 lesson).
func TestRefusedPutLeavesNoHiddenSlot(t *testing.T) {
	db, st := localDB(t, backCfg())

	preNext, preIdx := -1, -1
	var acked []string
	for i := 0; ; i++ {
		key := fmt.Sprintf("key-%04d", i)
		preNext, preIdx = db.next, len(db.index)
		err := db.Put(key, []byte("val-"+key), nil)
		if err == nil {
			acked = append(acked, key)
			continue
		}
		if err != wal.ErrLogFull {
			t.Fatalf("put %q: %v", key, err)
		}
		if db.next != preNext {
			t.Fatalf("refused put advanced the allocator: %#x -> %#x", preNext, db.next)
		}
		if len(db.index) != preIdx {
			t.Fatalf("refused put left an index entry: %d -> %d", preIdx, len(db.index))
		}
		if _, ok := db.index[key]; ok {
			t.Fatalf("refused key %q still indexed", key)
		}
		break
	}
	if len(acked) == 0 {
		t.Fatal("ring refused the very first put")
	}

	// Draining the commits frees ring space; a later key must then land in
	// the slot the refused put would have leaked.
	committed := false
	db.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	if !committed {
		t.Fatal("commit did not finish synchronously on local replicator")
	}
	if err := db.Put("late-key", []byte("late-value"), nil); err != nil {
		t.Fatalf("put after drain: %v", err)
	}
	db.Commit(nil)

	// Recovery's slot scan must see every acked key AND the late one. A
	// leaked zeroed slot between them would truncate the scan here.
	got, err := Rebuild(st.ReadLocal, backCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range acked {
		if string(got[key]) != "val-"+key {
			t.Fatalf("rebuilt %q = %q", key, got[key])
		}
	}
	if string(got["late-key"]) != "late-value" {
		t.Fatalf("late key lost to a hidden slot: %q", got["late-key"])
	}
}

// A refused batch Commit must roll its fresh slots back and poison the
// batch: its entries reference offsets the allocator may hand out again, so
// a retry of the same batch would corrupt the data region.
func TestBatchRefusalRollsBackAndPoisons(t *testing.T) {
	db, st := localDB(t, backCfg())
	fillRing(t, db, "fill")

	preNext, preIdx := db.next, len(db.index)
	b := db.Batch().Put("batch-a", []byte("aa")).Put("batch-b", []byte("bb"))
	if db.next == preNext {
		t.Fatal("batch puts allocated nothing")
	}
	if err := b.Commit(nil); err != wal.ErrLogFull {
		t.Fatalf("commit on full ring: %v", err)
	}
	if db.next != preNext || len(db.index) != preIdx {
		t.Fatalf("refused batch leaked allocations: next %#x->%#x index %d->%d",
			preNext, db.next, preIdx, len(db.index))
	}

	// Even after space frees up, the rolled-back batch must stay dead.
	db.Commit(nil)
	if err := b.Commit(nil); err != wal.ErrLogFull {
		t.Fatalf("poisoned batch retried: %v", err)
	}

	// A rebuilt batch succeeds and survives recovery.
	if err := db.Batch().Put("batch-a", []byte("aa")).Put("batch-b", []byte("bb")).Commit(nil); err != nil {
		t.Fatalf("fresh batch after drain: %v", err)
	}
	db.Commit(nil)
	got, err := Rebuild(st.ReadLocal, backCfg())
	if err != nil {
		t.Fatal(err)
	}
	if string(got["batch-a"]) != "aa" || string(got["batch-b"]) != "bb" {
		t.Fatalf("batch keys lost: %q %q", got["batch-a"], got["batch-b"])
	}
}

// When another writer allocates between batch build and refused Commit, the
// rollback is unsafe and must not happen — the slots stay allocated and the
// batch stays retryable, so the eventual commit logs them.
func TestBatchRefusalInterleavedAllocKeepsSlots(t *testing.T) {
	db, _ := localDB(t, backCfg())
	fillRing(t, db, "fill")

	b := db.Batch().Put("solo", []byte("sv"))
	ref := db.index["solo"]
	if _, err := db.allocate("intruder", 8); err != nil {
		t.Fatal(err)
	}
	postNext := db.next

	if err := b.Commit(nil); err != wal.ErrLogFull {
		t.Fatalf("commit on full ring: %v", err)
	}
	if db.next != postNext {
		t.Fatalf("conservative path rolled back anyway: %#x -> %#x", postNext, db.next)
	}
	if db.index["solo"] != ref {
		t.Fatal("batch's slot reassigned")
	}

	// Not poisoned: after a drain the same batch commits into its slots.
	db.Commit(nil)
	if err := b.Commit(nil); err != nil {
		t.Fatalf("retry after drain: %v", err)
	}
	if v, ok := db.Get("solo"); !ok || string(v) != "sv" {
		t.Fatalf("solo = %q %v", v, ok)
	}
}

// Overwriting an existing slot allocates nothing, so a refusal needs no
// rollback and the batch stays retryable.
func TestBatchOverwriteRefusalRetryable(t *testing.T) {
	db, _ := localDB(t, backCfg())
	if err := db.Put("k", []byte("v1"), nil); err != nil {
		t.Fatal(err)
	}
	fillRing(t, db, "fill")

	b := db.Batch().Put("k", []byte("v2"))
	if err := b.Commit(nil); err != wal.ErrLogFull {
		t.Fatalf("commit on full ring: %v", err)
	}
	db.Commit(nil)
	if err := b.Commit(nil); err != nil {
		t.Fatalf("overwrite retry after drain: %v", err)
	}
	if v, _ := db.Get("k"); string(v) != "v2" {
		t.Fatalf("k = %q", v)
	}
}

// A refused Put (and a refused overwrite, and a refused Delete) is checked
// for ring space before anything is built or claimed, so it leaves the whole
// store window — ring bytes included — the allocator, the index, the
// memtable and the log's cursors exactly as they were.
func TestRefusedPutTouchesNothing(t *testing.T) {
	db, st := localDB(t, backCfg())
	acked, refused := fillRing(t, db, "fill")

	window := append([]byte(nil), st.buf...)
	next, idx, size, seq, logState := db.next, len(db.index), db.Size(), db.log.Seq(), db.log.String()
	puts, _, dels, _ := db.Stats()
	check := func(what string) {
		t.Helper()
		if !bytes.Equal(st.buf, window) {
			t.Fatalf("%s changed the store window", what)
		}
		if db.next != next || len(db.index) != idx || db.Size() != size {
			t.Fatalf("%s changed next/index/memtable: %#x->%#x, %d->%d, %d->%d",
				what, next, db.next, idx, len(db.index), size, db.Size())
		}
		if db.log.Seq() != seq || db.log.String() != logState {
			t.Fatalf("%s moved the log: %s -> %s", what, logState, db.log)
		}
		if p, _, d, _ := db.Stats(); p != puts || d != dels {
			t.Fatalf("%s counted as done: puts %d->%d dels %d->%d", what, puts, p, dels, d)
		}
	}
	if err := db.Put(refused, []byte("again"), nil); err != wal.ErrLogFull {
		t.Fatalf("fresh put on a full ring: %v", err)
	}
	check("a refused fresh put")
	if _, ok := db.Get(refused); ok {
		t.Fatal("refused key readable")
	}
	if err := db.Put(acked[0], []byte("overwrite"), nil); err != wal.ErrLogFull {
		t.Fatalf("overwrite on a full ring: %v", err)
	}
	check("a refused overwrite")
	if v, _ := db.Get(acked[0]); string(v) != "val-"+acked[0] {
		t.Fatalf("refused overwrite visible: %q", v)
	}
	if err := db.Delete(acked[0], nil); err != wal.ErrLogFull {
		t.Fatalf("delete on a full ring: %v", err)
	}
	check("a refused delete")
}
