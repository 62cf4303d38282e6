package stream

import (
	"bytes"
	"fmt"
	"testing"

	"hyperloop/internal/objstore"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// memStore is an in-memory wal.Store for streamer tests.
type memStore struct{ buf []byte }

func (m *memStore) WriteLocal(off int, data []byte) { copy(m.buf[off:], data) }
func (m *memStore) Window(off, size int) []byte     { return m.buf[off : off+size] }
func (m *memStore) Persist(off, size int)           {}
func (m *memStore) ReadLocal(off, size int) []byte {
	out := make([]byte, size)
	copy(out, m.buf[off:off+size])
	return out
}

// rig is a WAL + streamer over a local replicator with a window at
// [winBase, winBase+winSize).
type rig struct {
	eng   *sim.Engine
	store *memStore
	log   *wal.Log
	obj   *objstore.Store
	str   *Streamer
}

const (
	rigLogBase = 0
	rigLogSize = 8 << 10
	rigWinBase = rigLogSize
	rigWinSize = 16 << 10
)

func newRig(t *testing.T, cfg StreamerConfig) *rig {
	t.Helper()
	eng := sim.NewEngine()
	ms := &memStore{buf: make([]byte, rigLogSize+rigWinSize)}
	log := wal.New(ms, wal.LocalReplicator{Stores: []wal.Store{ms}}, rigLogBase, rigLogSize, nil)
	obj := objstore.New(eng, objstore.Config{Seed: 9})
	cfg.WindowBase, cfg.WindowSize = rigWinBase, rigWinSize
	if cfg.Prefix == "" {
		cfg.Prefix = "s0"
	}
	str := NewStreamer(eng, obj, log, cfg, ms.ReadLocal)
	return &rig{eng: eng, store: ms, log: log, obj: obj, str: str}
}

// write appends and immediately commits one record.
func (r *rig) write(t *testing.T, off int, data []byte) {
	t.Helper()
	if err := r.log.Append([]wal.Entry{{Offset: off, Data: data}}, nil); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := r.log.ExecuteAndAdvance(nil); err != nil {
		t.Fatalf("execute: %v", err)
	}
}

// settle runs the engine until the streamer reports quiescence.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	idle := false
	r.str.Quiesce(func() { idle = true })
	if !r.eng.RunUntil(func() bool { return idle }, r.eng.Now().Add(5*sim.Second)) {
		t.Fatalf("streamer did not quiesce: lag=%d stats=%+v", r.str.Lag(), r.str.Stats())
	}
}

// rebuilt returns the window image reconstructed from the object store.
func (r *rig) rebuilt(t *testing.T) []byte {
	t.Helper()
	img, base, _, err := RebuildImage(r.obj.Peek, "s0")
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if base != rigWinBase || len(img) != rigWinSize {
		t.Fatalf("rebuild window [%d,+%d)", base, len(img))
	}
	return img
}

func TestStreamAndRebuildMatchesWindow(t *testing.T) {
	r := newRig(t, StreamerConfig{})
	for i := 0; i < 50; i++ {
		r.write(t, rigWinBase+i*97, []byte(fmt.Sprintf("val-%03d", i)))
	}
	r.settle(t)
	if r.str.Lag() != 0 {
		t.Fatalf("lag = %d after quiesce", r.str.Lag())
	}
	if got, want := r.rebuilt(t), r.store.ReadLocal(rigWinBase, rigWinSize); !bytes.Equal(got, want) {
		t.Fatal("rebuilt image differs from live window")
	}
	if s := r.str.Stats(); s.Segments == 0 || s.Records != 50 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSegmentSizeCapCutsMultipleSegments(t *testing.T) {
	r := newRig(t, StreamerConfig{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		r.write(t, rigWinBase+i*128, bytes.Repeat([]byte{byte(i)}, 100))
	}
	r.settle(t)
	if s := r.str.Stats(); s.Segments < 10 {
		t.Fatalf("want many small segments, got %d", s.Segments)
	}
	if got, want := r.rebuilt(t), r.store.ReadLocal(rigWinBase, rigWinSize); !bytes.Equal(got, want) {
		t.Fatal("rebuilt image differs from live window")
	}
}

func TestSnapshotRebaselineDropsSegments(t *testing.T) {
	r := newRig(t, StreamerConfig{SnapshotEvery: 5 * sim.Millisecond})
	for i := 0; i < 10; i++ {
		r.write(t, rigWinBase+i*64, []byte("early"))
	}
	r.settle(t)
	// Idle past the snapshot cadence: the next tick re-baselines.
	r.eng.RunFor(20 * sim.Millisecond)
	r.settle(t)
	if s := r.str.Stats(); s.Snapshots == 0 {
		t.Fatalf("no snapshot taken: %+v", s)
	}
	man, err := DecodeManifest(mustPeek(t, r, "s0/MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if man.SnapKey == "" || len(man.Segments) != 0 || man.SnapSeq != 10 {
		t.Fatalf("manifest after rebaseline: %+v", man)
	}
	// Later writes append segments on top of the snapshot.
	for i := 0; i < 5; i++ {
		r.write(t, rigWinBase+4096+i*64, []byte("late!"))
	}
	r.settle(t)
	if got, want := r.rebuilt(t), r.store.ReadLocal(rigWinBase, rigWinSize); !bytes.Equal(got, want) {
		t.Fatal("rebuilt image differs from live window after rebaseline")
	}
}

func mustPeek(t *testing.T, r *rig, key string) []byte {
	t.Helper()
	b, ok := r.obj.Peek(key)
	if !ok {
		t.Fatalf("missing %s", key)
	}
	return b
}

func TestCrashLosesTailRestartRebaselines(t *testing.T) {
	r := newRig(t, StreamerConfig{})
	for i := 0; i < 10; i++ {
		r.write(t, rigWinBase+i*64, []byte("aaaa"))
	}
	r.settle(t)
	covered := r.str.CoveredSeq()

	// Crash, then write through the outage: these commits are unobserved.
	r.str.Crash()
	for i := 0; i < 7; i++ {
		r.write(t, rigWinBase+2048+i*64, []byte("bbbb"))
	}
	r.eng.RunFor(10 * sim.Millisecond)
	if r.str.CoveredSeq() != covered {
		t.Fatalf("covered moved during crash: %d", r.str.CoveredSeq())
	}

	// Restart: a fresh snapshot re-baselines; the store converges again.
	r.str.Restart()
	r.settle(t)
	if r.str.CoveredSeq() != 17 {
		t.Fatalf("covered = %d after restart", r.str.CoveredSeq())
	}
	if got, want := r.rebuilt(t), r.store.ReadLocal(rigWinBase, rigWinSize); !bytes.Equal(got, want) {
		t.Fatal("rebuilt image differs after crash/restart")
	}
	man, err := DecodeManifest(mustPeek(t, r, "s0/MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Gen != 1 {
		t.Fatalf("generation = %d after restart", man.Gen)
	}
}

func TestUploadRetriesThroughOutage(t *testing.T) {
	r := newRig(t, StreamerConfig{})
	r.obj.Outage(10 * sim.Millisecond)
	for i := 0; i < 5; i++ {
		r.write(t, rigWinBase+i*64, []byte("oooo"))
	}
	r.settle(t)
	if s := r.str.Stats(); s.Retries == 0 {
		t.Fatalf("expected retries through outage: %+v", s)
	}
	if got, want := r.rebuilt(t), r.store.ReadLocal(rigWinBase, rigWinSize); !bytes.Equal(got, want) {
		t.Fatal("rebuilt image differs after outage")
	}
}

func TestRestoreFromColdInstallsWindow(t *testing.T) {
	r := newRig(t, StreamerConfig{})
	for i := 0; i < 30; i++ {
		r.write(t, rigWinBase+i*128, []byte(fmt.Sprintf("cold-%02d", i)))
	}
	r.settle(t)

	img := make([]byte, rigLogSize+rigWinSize)
	var stats RestoreStats
	restoreDone := false
	StartRestore(r.eng, r.obj, "s0", func(off int, data []byte) {
		copy(img[off:], data)
	}, func(st RestoreStats, err error) {
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		stats, restoreDone = st, true
	})
	if !r.eng.RunUntil(func() bool { return restoreDone }, r.eng.Now().Add(5*sim.Second)) {
		t.Fatal("restore did not finish")
	}
	if stats.RestoredSeq != 30 || stats.Records != 30 {
		t.Fatalf("stats: %+v", stats)
	}
	if !bytes.Equal(img[rigWinBase:rigWinBase+rigWinSize], r.store.ReadLocal(rigWinBase, rigWinSize)) {
		t.Fatal("restored window differs from live window")
	}
	if stats.Elapsed <= 0 {
		t.Fatalf("elapsed = %v", stats.Elapsed)
	}
}

// TestCoveredSeqWaitsForManifest pins the restore-safety contract: CoveredSeq
// must not advance until the manifest referencing the uploaded blob is itself
// durable. A repair path that polls CoveredSeq and then restores would
// otherwise race the manifest write and rebuild from a stale coverage point.
func TestCoveredSeqWaitsForManifest(t *testing.T) {
	r := newRig(t, StreamerConfig{FlushEvery: 100 * sim.Microsecond})
	r.write(t, rigWinBase, []byte("tick"))
	// Run until the segment blob is in the store but before the manifest put
	// (put latency >= 500us) can have landed: covered must still be 0.
	sawBlob := false
	r.eng.RunUntil(func() bool {
		sawBlob = len(r.obj.List("s0/g0000/seg/")) > 0
		return sawBlob
	}, r.eng.Now().Add(sim.Second))
	if !sawBlob {
		t.Fatal("segment never uploaded")
	}
	if got := r.str.CoveredSeq(); got != 0 {
		t.Fatalf("covered = %d with manifest write still in flight", got)
	}
	// At every instant where CoveredSeq claims coverage, a rebuild from the
	// store must cover at least that much.
	for i := 1; i < 20; i++ {
		r.write(t, rigWinBase+i*64, []byte("tick"))
	}
	deadline := r.eng.Now().Add(sim.Second)
	for r.str.Lag() > 0 {
		if c := r.str.CoveredSeq(); c > 0 {
			_, _, covered, err := RebuildImage(r.obj.Peek, "s0")
			if err != nil {
				t.Fatalf("rebuild at covered=%d: %v", c, err)
			}
			if covered < c {
				t.Fatalf("CoveredSeq=%d but store rebuild covers only %d", c, covered)
			}
		}
		if !r.eng.Step() || r.eng.Now() > deadline {
			t.Fatalf("stream stalled at lag=%d", r.str.Lag())
		}
	}
}

func TestRestoreAbort(t *testing.T) {
	r := newRig(t, StreamerConfig{SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		r.write(t, rigWinBase+i*64, []byte("abcd"))
	}
	r.settle(t)
	var got error
	done := false
	h := StartRestore(r.eng, r.obj, "s0", func(int, []byte) {}, func(_ RestoreStats, err error) {
		got, done = err, true
	})
	h.Abort()
	if !r.eng.RunUntil(func() bool { return done }, r.eng.Now().Add(sim.Second)) {
		t.Fatal("aborted restore never completed")
	}
	if got != ErrAborted {
		t.Fatalf("err = %v", got)
	}
}

// TestRestoreRetriesThroughOutageAndFailsOnMissing: ErrUnavailable retries
// until the outage lifts; a prefix with no manifest is a fatal error.
func TestRestoreRetriesThroughOutageAndFailsOnMissing(t *testing.T) {
	r := newRig(t, StreamerConfig{})
	for i := 0; i < 5; i++ {
		r.write(t, rigWinBase+i*64, []byte("rrrr"))
	}
	r.settle(t)

	r.obj.Outage(10 * sim.Millisecond)
	img := make([]byte, rigLogSize+rigWinSize)
	done := false
	StartRestore(r.eng, r.obj, "s0", func(off int, data []byte) {
		copy(img[off:], data)
	}, func(st RestoreStats, err error) {
		if err != nil {
			t.Errorf("restore through outage: %v", err)
		}
		if st.RestoredSeq != 5 {
			t.Errorf("restored seq = %d", st.RestoredSeq)
		}
		done = true
	})
	if !r.eng.RunUntil(func() bool { return done }, r.eng.Now().Add(5*sim.Second)) {
		t.Fatal("restore did not finish past the outage")
	}
	if !bytes.Equal(img[rigWinBase:rigWinBase+rigWinSize], r.store.ReadLocal(rigWinBase, rigWinSize)) {
		t.Fatal("restored window differs")
	}

	var missErr error
	missDone := false
	StartRestore(r.eng, r.obj, "no-such-prefix", func(int, []byte) {}, func(_ RestoreStats, err error) {
		missErr, missDone = err, true
	})
	if !r.eng.RunUntil(func() bool { return missDone }, r.eng.Now().Add(sim.Second)) {
		t.Fatal("missing-manifest restore never completed")
	}
	if missErr == nil {
		t.Fatal("missing manifest restored successfully")
	}
	if got := r.str.ManifestKey(); got != "s0/MANIFEST" {
		t.Fatalf("manifest key = %q", got)
	}
}
