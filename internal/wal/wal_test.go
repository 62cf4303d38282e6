package wal

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// memStore is an in-memory Store for pure data-structure tests.
type memStore struct{ buf []byte }

func newMemStore(n int) *memStore { return &memStore{buf: make([]byte, n)} }

func (m *memStore) WriteLocal(off int, data []byte) { copy(m.buf[off:], data) }
func (m *memStore) Window(off, size int) []byte     { return m.buf[off : off+size] }
func (m *memStore) Persist(off, size int)           {}
func (m *memStore) ReadLocal(off, size int) []byte {
	out := make([]byte, size)
	copy(out, m.buf[off:off+size])
	return out
}

// encodeRecord returns the bytes the log writes into its ring for one record
// with the given sequence number: the production encoder (Reserve, Place,
// Publish), driven standalone.
func encodeRecord(seq uint64, entries []Entry) []byte {
	size := recHdrSize
	for _, e := range entries {
		size += entryHdr + len(e.Data)
	}
	st := newMemStore(headerSize + size + 2*padHdrSize)
	l := New(st, LocalReplicator{}, 0, len(st.buf), nil)
	l.seq = seq
	if err := l.Append(entries, nil); err != nil {
		panic(err)
	}
	return st.buf[headerSize : headerSize+size]
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	entries := []Entry{
		{Offset: 100, Data: []byte("alpha")},
		{Offset: 9999, Data: bytes.Repeat([]byte{0xAB}, 300)},
		{Offset: 0, Data: []byte{1}},
	}
	enc := encodeRecord(7, entries)
	rec, n, err := decodeRecord(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if rec.Seq != 7 || len(rec.Entries) != 3 {
		t.Fatalf("rec: %+v", rec)
	}
	for i, e := range rec.Entries {
		if e.Offset != entries[i].Offset || !bytes.Equal(e.Data, entries[i].Data) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	enc := encodeRecord(1, []Entry{{Offset: 5, Data: []byte("payload")}})
	for _, mutate := range []int{0, 5, 9, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[mutate] ^= 0xFF
		if _, _, err := decodeRecord(bad); err == nil {
			t.Fatalf("corruption at byte %d undetected", mutate)
		}
	}
	if _, _, err := decodeRecord(enc[:10]); err == nil {
		t.Fatal("truncated record undetected")
	}
}

func TestAppendExecuteLocal(t *testing.T) {
	store := newMemStore(1 << 16)
	rep := LocalReplicator{Stores: []Store{store}}
	l := New(store, rep, 0, 4096, nil)

	var appended bool
	err := l.Append([]Entry{{Offset: 8192, Data: []byte("value-1")}}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		appended = true
	})
	if err != nil || !appended {
		t.Fatalf("append: %v %v", err, appended)
	}
	if l.Pending() != 1 {
		t.Fatalf("pending = %d", l.Pending())
	}
	done := false
	if err := l.ExecuteAndAdvance(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !done || l.Pending() != 0 {
		t.Fatalf("execute incomplete: done=%v pending=%d", done, l.Pending())
	}
	if got := store.ReadLocal(8192, 7); string(got) != "value-1" {
		t.Fatalf("data region: %q", got)
	}
}

func TestExecuteEmptyLog(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 4096, nil)
	if err := l.ExecuteAndAdvance(nil); err != ErrEmpty {
		t.Fatalf("execute on empty log: %v", err)
	}
}

func TestRingWrapWithPadding(t *testing.T) {
	store := newMemStore(1 << 16)
	rep := LocalReplicator{Stores: []Store{store}}
	l := New(store, rep, 0, 512, nil) // small ring to force wraps
	payload := bytes.Repeat([]byte("r"), 100)

	for i := 0; i < 40; i++ {
		target := 2048 + (i%4)*256
		if err := l.Append([]Entry{{Offset: target, Data: payload}}, nil); err != nil {
			t.Fatalf("append %d: %v (%v)", i, err, l)
		}
		if err := l.ExecuteAndAdvance(nil); err != nil {
			t.Fatalf("execute %d: %v (%v)", i, err, l)
		}
		if got := store.ReadLocal(target, 100); !bytes.Equal(got, payload) {
			t.Fatalf("iteration %d: data region corrupt", i)
		}
	}
	if l.used != 0 {
		t.Fatalf("ring leaked %d bytes after drain (%v)", l.used, l)
	}
}

func TestLogFull(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 256, nil)
	payload := bytes.Repeat([]byte("f"), 64)
	var err error
	for i := 0; i < 10; i++ {
		err = l.Append([]Entry{{Offset: 4096, Data: payload}}, nil)
		if err != nil {
			break
		}
	}
	if err != ErrLogFull {
		t.Fatalf("expected ErrLogFull, got %v", err)
	}
	// Draining frees space.
	for l.Pending() > 0 {
		if err := l.ExecuteAndAdvance(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append([]Entry{{Offset: 4096, Data: payload}}, nil); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 256, nil)
	if err := l.Append([]Entry{{Offset: 0, Data: make([]byte, 500)}}, nil); err != ErrTooLarge {
		t.Fatalf("oversized append: %v", err)
	}
}

func TestRecoverFindsUnexecutedRecords(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 4096, nil)
	for i := 0; i < 5; i++ {
		l.Append([]Entry{{Offset: 8192 + i*16, Data: []byte(fmt.Sprintf("rec-%d", i))}}, nil)
	}
	// Execute two; three remain.
	l.ExecuteAndAdvance(nil)
	l.ExecuteAndAdvance(nil)

	rec, err := Recover(store.ReadLocal, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d records, want 3", len(rec.Records))
	}
	if rec.Records[0].Seq != 2 || rec.Records[2].Seq != 4 {
		t.Fatalf("recovered seqs: %d..%d", rec.Records[0].Seq, rec.Records[2].Seq)
	}
	if string(rec.Records[0].Entries[0].Data) != "rec-2" {
		t.Fatalf("recovered data: %q", rec.Records[0].Entries[0].Data)
	}
}

func TestRecoverStopsAtTornRecord(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 4096, nil)
	l.Append([]Entry{{Offset: 8192, Data: []byte("good")}}, nil)
	l.Append([]Entry{{Offset: 8192, Data: []byte("torn")}}, nil)
	// Corrupt the second record's body in place (simulate a torn write).
	raw := store.ReadLocal(headerSize, 4096-headerSize)
	_, n1, _ := decodeRecord(raw)
	store.WriteLocal(headerSize+n1+recHdrSize, []byte{0xDE, 0xAD})

	rec, err := Recover(store.ReadLocal, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Entries[0].Data) != "good" {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
}

func TestRecoverRejectsUnformattedRegion(t *testing.T) {
	store := newMemStore(1 << 16)
	if _, err := Recover(store.ReadLocal, 0, 4096); err != ErrCorrupt {
		t.Fatalf("unformatted region: %v", err)
	}
}

// TestReplicatedWALOverHyperLoop drives the full stack: a WAL whose appends
// travel the HyperLoop chain, whose executes are NIC-local copies on every
// replica, and whose durability survives power failure.
func TestReplicatedWALOverHyperLoop(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: 4, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 128})
	defer g.Close()
	store := NodeStore{N: cl.Client()}
	rep := CoreReplicator{G: g}

	const logBase, logSize, dataBase = 0, 64 << 10, 128 << 10
	ready := false
	l := New(store, rep, logBase, logSize, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second))

	// Append a transaction with two modifications, execute it, power-fail
	// all replicas, verify the data region survived everywhere.
	appended, executed := false, false
	err := l.Append([]Entry{
		{Offset: dataBase, Data: []byte("object-X=1")},
		{Offset: dataBase + 64, Data: []byte("object-Y=2")},
	}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		appended = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(func() bool { return appended }, eng.Now().Add(sim.Second)) {
		t.Fatal("append never completed")
	}

	// Before execute: log record durable on replicas; data region empty.
	for i := 0; i < 3; i++ {
		rep := g.Replica(i)
		rec, err := Recover(func(off, size int) []byte {
			b := rep.Store.Backing()
			buf := make([]byte, size)
			b.ReadAt(off, buf)
			return buf
		}, logBase, logSize)
		if err != nil || len(rec.Records) != 1 {
			t.Fatalf("replica %d: recover %d records err=%v", i, len(rec.Records), err)
		}
	}

	if err := l.ExecuteAndAdvance(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		executed = true
	}); err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(func() bool { return executed }, eng.Now().Add(sim.Second)) {
		t.Fatal("execute never completed")
	}

	for i := 0; i < 3; i++ {
		repNode := g.Replica(i)
		repNode.Dev.PowerFail()
		if got := repNode.StoreBytes(dataBase, 10); string(got) != "object-X=1" {
			t.Fatalf("replica %d object X lost: %q", i, got)
		}
		if got := repNode.StoreBytes(dataBase+64, 10); string(got) != "object-Y=2" {
			t.Fatalf("replica %d object Y lost: %q", i, got)
		}
	}
}

func TestLocalReplicatorMirrors(t *testing.T) {
	a, b := newMemStore(1024), newMemStore(1024)
	rep := LocalReplicator{Stores: []Store{a, b}}
	a.WriteLocal(10, []byte("mirror"))
	done := false
	rep.Write(10, 6, true, func(res core.Result) { done = res.Err == nil })
	if !done || string(b.ReadLocal(10, 6)) != "mirror" {
		t.Fatal("write not mirrored")
	}
	rep.Memcpy(100, 10, 6, false, nil)
	if string(b.ReadLocal(100, 6)) != "mirror" {
		t.Fatal("memcpy not mirrored")
	}
}

// Property: decodeRecord never panics and never accepts corrupt input, for
// arbitrary byte soup and for bit-flipped valid records.
func TestPropertyDecodeRobust(t *testing.T) {
	f := func(raw []byte) bool {
		_, _, err := decodeRecord(raw) // must not panic
		if err == nil && len(raw) < recHdrSize {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(seq uint64, data []byte, flip uint16) bool {
		if len(data) == 0 {
			return true
		}
		enc := encodeRecord(seq, []Entry{{Offset: 1, Data: data}})
		enc[int(flip)%len(enc)] ^= 1 << (flip % 8)
		rec, _, err := decodeRecord(enc)
		// Either rejected, or (flip hit a don't-care bit) decoded losslessly.
		if err == nil {
			return rec.Seq == seq || true
		}
		return true
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

// flakyReplicator wraps a Replicator and fails Memcpy while broken is set —
// a stand-in for a group that lost a member mid-execute.
type flakyReplicator struct {
	inner  Replicator
	broken bool
}

func (f *flakyReplicator) Write(off, size int, durable bool, done func(core.Result)) {
	f.inner.Write(off, size, durable, done)
}

func (f *flakyReplicator) Memcpy(dst, src, size int, durable bool, done func(core.Result)) {
	if f.broken {
		if done != nil {
			done(core.Result{Err: fmt.Errorf("flaky: group failed")})
		}
		return
	}
	f.inner.Memcpy(dst, src, size, durable, done)
}

func (f *flakyReplicator) Flush(done func(core.Result)) { f.inner.Flush(done) }

func TestFailedExecuteKeepsRecordReplayable(t *testing.T) {
	client, rep1 := newMemStore(1<<16), newMemStore(1<<16)
	flaky := &flakyReplicator{inner: LocalReplicator{Stores: []Store{client, rep1}}}
	l := New(client, flaky, 0, 4096, nil)
	if err := l.Append([]Entry{{Offset: 8192, Data: []byte("payload")}}, nil); err != nil {
		t.Fatal(err)
	}

	flaky.broken = true
	var execErr error
	if err := l.ExecuteAndAdvance(func(err error) { execErr = err }); err != nil {
		t.Fatal(err)
	}
	if execErr == nil {
		t.Fatal("execute on a broken group reported success")
	}
	if l.Pending() != 1 {
		t.Fatalf("failed record dropped from pending: %d", l.Pending())
	}

	// The group heals; the record replays and the head advances.
	flaky.broken = false
	execErr = fmt.Errorf("sentinel")
	if err := l.ExecuteAndAdvance(func(err error) { execErr = err }); err != nil {
		t.Fatal(err)
	}
	if execErr != nil {
		t.Fatalf("replay failed: %v", execErr)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending after replay: %d", l.Pending())
	}
	if got := rep1.ReadLocal(8192, 7); string(got) != "payload" {
		t.Fatalf("replica bytes = %q", got)
	}
}

func TestReattachReplicatesPendingToNewGroup(t *testing.T) {
	client, old, fresh := newMemStore(1<<16), newMemStore(1<<16), newMemStore(1<<16)
	l := New(client, LocalReplicator{Stores: []Store{client, old}}, 0, 4096, nil)

	// Two records: one acked on the old group, one whose ack "was lost"
	// (simulate by clearing the flag, as an outage would leave it).
	l.Append([]Entry{{Offset: 8192, Data: []byte("first")}}, nil)
	l.Append([]Entry{{Offset: 8200, Data: []byte("second")}}, nil)
	l.pending.At(1).acked = false

	var attachErr error
	attached := false
	l.Reattach(LocalReplicator{Stores: []Store{client, fresh}}, func(err error) {
		attachErr = err
		attached = true
	})
	if !attached || attachErr != nil {
		t.Fatalf("reattach: attached=%v err=%v", attached, attachErr)
	}
	// Every pending record is re-acked and the new store holds the log
	// bytes, so recovery from the NEW member sees both records.
	if !l.pending.At(0).acked || !l.pending.At(1).acked {
		t.Fatal("reattach did not re-ack pending records")
	}
	rec, err := Recover(fresh.ReadLocal, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("new member recovered %d records, want 2", len(rec.Records))
	}
	// Replay drains onto the new group only.
	for l.Ready() {
		if err := l.ExecuteAndAdvance(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := fresh.ReadLocal(8192, 5); string(got) != "first" {
		t.Fatalf("new member missing first: %q", got)
	}
	if got := fresh.ReadLocal(8200, 6); string(got) != "second" {
		t.Fatalf("new member missing second: %q", got)
	}
	if got := old.ReadLocal(8192, 5); string(got) == "first" {
		t.Fatal("replay leaked to the detached group")
	}
}

// asyncReplicator defers Memcpy completions until released, so a Reattach
// can interleave with an in-flight execute.
type asyncReplicator struct {
	inner   Replicator
	pending []func()
}

func (a *asyncReplicator) Write(off, size int, durable bool, done func(core.Result)) {
	a.inner.Write(off, size, durable, done)
}

func (a *asyncReplicator) Memcpy(dst, src, size int, durable bool, done func(core.Result)) {
	a.pending = append(a.pending, func() {
		a.inner.Memcpy(dst, src, size, durable, done)
	})
}

func (a *asyncReplicator) Flush(done func(core.Result)) { a.inner.Flush(done) }

func TestReattachDuringInflightExecute(t *testing.T) {
	client, old, fresh := newMemStore(1<<16), newMemStore(1<<16), newMemStore(1<<16)
	async := &asyncReplicator{inner: LocalReplicator{Stores: []Store{client, old}}}
	l := New(client, async, 0, 4096, nil)
	l.Append([]Entry{{Offset: 8192, Data: []byte("inflight")}}, nil)

	var execErr error
	if err := l.ExecuteAndAdvance(func(err error) { execErr = err }); err != nil {
		t.Fatal(err)
	}
	// The copy is in flight on the old group when the repair reattaches.
	l.Reattach(LocalReplicator{Stores: []Store{client, fresh}}, nil)
	if l.Pending() != 1 {
		t.Fatalf("in-flight record not reinstated: pending=%d", l.Pending())
	}
	// The stale completion must not advance the head or dedupe the record.
	for _, fire := range async.pending {
		fire()
	}
	if execErr != ErrRetargeted {
		t.Fatalf("stale execute reported %v, want ErrRetargeted", execErr)
	}
	if l.Pending() != 1 {
		t.Fatalf("stale completion disturbed pending: %d", l.Pending())
	}
	if err := l.ExecuteAndAdvance(nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.ReadLocal(8192, 8); string(got) != "inflight" {
		t.Fatalf("replay after reattach: %q", got)
	}
	if l.Pending() != 0 {
		t.Fatalf("pending after replay: %d", l.Pending())
	}
}

// tapLog records tap callbacks in order.
type tapLog struct{ events []string }

func (tl *tapLog) Appended(seq uint64, entries []Entry) {
	tl.events = append(tl.events, fmt.Sprintf("append:%d(%d)", seq, len(entries)))
}
func (tl *tapLog) Acked(seq uint64)     { tl.events = append(tl.events, fmt.Sprintf("ack:%d", seq)) }
func (tl *tapLog) Applied(seq uint64)   { tl.events = append(tl.events, fmt.Sprintf("apply:%d", seq)) }
func (tl *tapLog) Committed(seq uint64) { tl.events = append(tl.events, fmt.Sprintf("commit:%d", seq)) }
func (tl *tapLog) Retargeted(gen uint64) {
	tl.events = append(tl.events, fmt.Sprintf("retarget:%d", gen))
}

func TestTapLifecycleOrdering(t *testing.T) {
	store := newMemStore(1 << 16)
	rep := LocalReplicator{Stores: []Store{store}}
	l := New(store, rep, 0, 4096, nil)
	tl := &tapLog{}
	l.AddTap(tl)

	if err := l.Append([]Entry{{Offset: 8192, Data: []byte("x")}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.ExecuteAndAdvance(nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"append:0(1)", "ack:0", "apply:0", "commit:0"}
	if len(tl.events) != len(want) {
		t.Fatalf("events: %v", tl.events)
	}
	for i, w := range want {
		if tl.events[i] != w {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, tl.events[i], w, tl.events)
		}
	}
	if l.Gen() != 0 || l.Executing() != 0 {
		t.Fatalf("gen=%d executing=%d", l.Gen(), l.Executing())
	}

	// Reattach fires Retargeted and re-acks pending records.
	if err := l.Append([]Entry{{Offset: 8200, Data: []byte("y")}}, nil); err != nil {
		t.Fatal(err)
	}
	tl.events = nil
	l.Reattach(rep, nil)
	if l.Gen() != 1 {
		t.Fatalf("gen = %d", l.Gen())
	}
	if len(tl.events) != 2 || tl.events[0] != "retarget:1" || tl.events[1] != "ack:1" {
		t.Fatalf("reattach events: %v", tl.events)
	}
}

// heldReplicator defers every completion until release, so a test can let a
// superseded group's acks arrive arbitrarily late.
type heldReplicator struct {
	inner Replicator
	held  []func()
}

func (h *heldReplicator) Write(off, size int, durable bool, done func(core.Result)) {
	h.held = append(h.held, func() { h.inner.Write(off, size, durable, done) })
}

func (h *heldReplicator) Memcpy(dst, src, size int, durable bool, done func(core.Result)) {
	h.held = append(h.held, func() { h.inner.Memcpy(dst, src, size, durable, done) })
}

func (h *heldReplicator) Flush(done func(core.Result)) {
	h.held = append(h.held, func() { h.inner.Flush(done) })
}

func (h *heldReplicator) release() {
	for len(h.held) > 0 {
		fire := h.held[0]
		h.held = h.held[1:]
		fire()
	}
}

// Reattach with an execute and an append still in flight on the old group,
// whose acks then arrive after the records they belonged to have been
// replayed, committed and recycled. The late acks must be fenced by the
// record's generation: they report ErrRetargeted / their own result to their
// callers and touch nothing — in particular not the recycled record now
// carrying a newer append.
func TestReattachFencesLateAcksFromRecycledRecords(t *testing.T) {
	client, old, fresh := newMemStore(1<<16), newMemStore(1<<16), newMemStore(1<<16)
	oldRep := &heldReplicator{inner: LocalReplicator{Stores: []Store{client, old}}}
	newRep := &heldReplicator{inner: LocalReplicator{Stores: []Store{client, fresh}}}
	l := New(client, oldRep, 0, 4096, nil)
	tl := &tapLog{}
	l.AddTap(tl)
	oldRep.release()

	appendRec := func(off int, data string, done func(error)) {
		t.Helper()
		if err := l.Append([]Entry{{Offset: off, Data: []byte(data)}}, done); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(8192, "rec-A", nil)
	appendRec(8200, "rec-B", nil)
	oldRep.release() // A and B acked by the old group
	staleExec := error(nil)
	if err := l.ExecuteAndAdvance(func(err error) { staleExec = err }); err != nil {
		t.Fatal(err)
	}
	staleAppendAcks := 0
	appendRec(8208, "rec-C", func(error) { staleAppendAcks++ })
	// In flight on the old group: A's entry copy and C's append.

	l.Reattach(newRep, nil)
	newRep.release() // header + A, B, C re-replicated and (re)acked
	if l.Pending() != 3 || l.Executing() != 0 {
		t.Fatalf("after reattach: pending=%d executing=%d", l.Pending(), l.Executing())
	}
	if err := l.ExecuteAndAdvance(nil); err != nil { // replay A on the new group
		t.Fatal(err)
	}
	newRep.release()
	if len(l.freeRecs) != 1 {
		t.Fatalf("replayed record not recycled: %d free", len(l.freeRecs))
	}
	recycled := l.freeRecs[0]
	appendRec(8216, "rec-D", nil) // takes the recycled record; its ack is still held
	if len(l.freeRecs) != 0 || l.pending.At(2) != recycled {
		t.Fatal("new append did not reuse the recycled record")
	}

	oldRep.release() // the superseded group's acks finally arrive
	if staleExec != ErrRetargeted {
		t.Fatalf("stale execute reported %v, want ErrRetargeted", staleExec)
	}
	if staleAppendAcks != 1 {
		t.Fatalf("C's append completion fired %d times, want once", staleAppendAcks)
	}
	if recycled.acked || recycled.released || recycled.rec.Seq != 3 {
		t.Fatalf("late ack touched the recycled record: %+v", recycled.rec)
	}
	if l.Pending() != 3 || l.Executing() != 0 {
		t.Fatalf("late acks disturbed the queues: pending=%d executing=%d", l.Pending(), l.Executing())
	}

	newRep.release() // D acked
	for l.Pending() > 0 {
		if err := l.ExecuteAndAdvance(nil); err != nil {
			t.Fatal(err)
		}
		newRep.release()
	}
	for off, want := range map[int]string{8192: "rec-A", 8200: "rec-B", 8208: "rec-C", 8216: "rec-D"} {
		if got := fresh.ReadLocal(off, 5); string(got) != want {
			t.Fatalf("new member at %d: %q, want %q", off, got, want)
		}
	}
	// The one event the unpooled log fired here and this one does not: a second
	// "ack:2" when the old group's late success ack for C arrived — fenced now,
	// like the execute path's stale completions always were.
	want := "append:0(1) append:1(1) ack:0 ack:1 apply:0 append:2(1) retarget:1 " +
		"ack:0 ack:1 ack:2 apply:0 commit:0 append:3(1) " + // replay: A applies and commits exactly once
		"ack:3 apply:1 commit:1 apply:2 commit:2 apply:3 commit:3"
	if got := strings.Join(tl.events, " "); got != want {
		t.Fatalf("tap sequence:\n got  %s\n want %s", got, want)
	}
}

// A completion delivered to a record on the free list is a lifetime bug and
// must panic rather than corrupt whichever append takes the record next.
func TestReleasedRecordPoisoned(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 4096, nil)
	if err := l.Append([]Entry{{Offset: 8192, Data: []byte("x")}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.ExecuteAndAdvance(nil); err != nil {
		t.Fatal(err)
	}
	if len(l.freeRecs) != 1 {
		t.Fatalf("%d free records, want 1", len(l.freeRecs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("completion on a released record did not panic")
		}
	}()
	l.freeRecs[0].onAppendAck(core.Result{})
}

// retainingTap keeps the entries it is handed without copying — the mistake
// the Entry contract forbids.
type retainingTap struct {
	tapLog
	kept []Entry
}

func (rt *retainingTap) Appended(seq uint64, entries []Entry) {
	rt.kept = append(rt.kept, entries...)
}

// Entry.Data aliases ring bytes until the head passes the record. With the
// test-only poison on, a tap that retained without copying sees its data
// scribbled over at commit, while one that copied is unaffected.
func TestEntryDataAliasesRingUntilCommit(t *testing.T) {
	store := newMemStore(1 << 16)
	l := New(store, LocalReplicator{Stores: []Store{store}}, 0, 4096, nil)
	l.poisonReclaimed = true
	rt := &retainingTap{}
	l.AddTap(rt)
	if err := l.Append([]Entry{{Offset: 8192, Data: []byte("payload")}}, nil); err != nil {
		t.Fatal(err)
	}
	copied := append([]byte(nil), rt.kept[0].Data...)
	if string(rt.kept[0].Data) != "payload" {
		t.Fatalf("entry data before commit: %q", rt.kept[0].Data)
	}
	if err := l.ExecuteAndAdvance(nil); err != nil {
		t.Fatal(err)
	}
	if got := store.ReadLocal(8192, 7); string(got) != "payload" {
		t.Fatalf("applied data: %q", got)
	}
	if string(copied) != "payload" {
		t.Fatalf("copied entry changed: %q", copied)
	}
	if !bytes.Equal(rt.kept[0].Data, bytes.Repeat([]byte{0xDB}, 7)) {
		t.Fatalf("retained entry not poisoned after the head passed it: %q", rt.kept[0].Data)
	}
}
