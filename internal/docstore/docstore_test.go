package docstore

import (
	"fmt"
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/locks"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// rig builds a docstore over either backend.
type rig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	g   *core.Group
	ng  *naive.Group
	st  *Store
}

func hyperRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: n + 1, StoreSize: 32 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	g := core.New(cl, core.Config{Depth: 256})
	cfg.LockBase = 30 << 20
	backend := Backend{
		Rep:      wal.CoreReplicator{G: g},
		Locks:    locks.New(g, eng, 30<<20, locks.Config{}),
		Replicas: cl.Replicas(),
	}
	ready := false
	st := Open(eng, cl.Client(), backend, cfg, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("open stalled")
	}
	return &rig{eng: eng, cl: cl, g: g, st: st}
}

func naiveRig(t *testing.T, n int, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes: n + 1, StoreSize: 32 << 20, Fabric: fabric.Config{JitterFrac: -1},
	})
	ng := naive.New(cl, naive.Config{Mode: naive.Event})
	backend := Backend{
		Rep:      wal.CoreReplicator{G: ng},
		Replicas: cl.Replicas(),
	}
	ready := false
	st := Open(eng, cl.Client(), backend, cfg, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("open stalled")
	}
	return &rig{eng: eng, cl: cl, ng: ng, st: st}
}

func (r *rig) await(t *testing.T, done *bool) {
	t.Helper()
	failed := func() bool {
		if r.g != nil {
			return r.g.Failed() != nil
		}
		return r.ng.Failed() != nil
	}
	if !r.eng.RunUntil(func() bool { return *done || failed() }, r.eng.Now().Add(30*sim.Second)) {
		t.Fatal("operation stalled")
	}
	if failed() {
		if r.g != nil {
			t.Fatal(r.g.Failed())
		}
		t.Fatal(r.ng.Failed())
	}
}

func TestInsertFind(t *testing.T) {
	r := hyperRig(t, 3, Config{})
	done := false
	err := r.st.Insert("doc1", Document{"field0": "hello", "field1": "world"}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	r.await(t, &done)
	doc, ok := r.st.Find("doc1")
	if !ok || doc["field0"] != "hello" {
		t.Fatalf("find: %v %v", doc, ok)
	}
	if _, ok := r.st.Find("nope"); ok {
		t.Fatal("phantom document")
	}
}

func TestUpdateMergesFields(t *testing.T) {
	r := hyperRig(t, 3, Config{})
	done := false
	r.st.Insert("d", Document{"a": "1", "b": "2"}, func(error) {})
	r.st.Update("d", Document{"b": "3", "c": "4"}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.await(t, &done)
	doc, _ := r.st.Find("d")
	if doc["a"] != "1" || doc["b"] != "3" || doc["c"] != "4" {
		t.Fatalf("merged doc: %v", doc)
	}
}

func TestScanOrdered(t *testing.T) {
	r := hyperRig(t, 2, Config{})
	done := 0
	for i := 0; i < 20; i++ {
		r.st.Insert(fmt.Sprintf("user%03d", i), Document{"n": fmt.Sprint(i)}, func(error) { done++ })
	}
	allDone := false
	r.eng.RunUntil(func() bool { allDone = done >= 20; return allDone }, r.eng.Now().Add(10*sim.Second))
	if !allDone {
		t.Fatalf("inserts stalled: %d", done)
	}
	docs := r.st.Scan("user005", 3)
	if len(docs) != 3 || docs[0]["n"] != "5" || docs[2]["n"] != "7" {
		t.Fatalf("scan: %v", docs)
	}
}

func TestCommitReplicatesDocuments(t *testing.T) {
	r := hyperRig(t, 3, Config{})
	done := false
	r.st.Insert("persist", Document{"k": "v"}, func(error) {})
	r.st.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.await(t, &done)

	for i := 0; i < 3; i++ {
		node := r.g.Replica(i)
		node.Dev.PowerFail()
		docs, err := Rebuild(func(off, size int) []byte {
			return node.Dev.DurableRead(off, size)
		}, r.st.cfg)
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if docs["persist"]["k"] != "v" {
			t.Fatalf("replica %d lost document: %v", i, docs)
		}
	}
}

func TestAckedInsertSurvivesCrashWithoutCommit(t *testing.T) {
	r := hyperRig(t, 3, Config{CommitEvery: 1 << 30})
	done := false
	r.st.Insert("journaled", Document{"x": "y"}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.await(t, &done)
	if r.st.PendingCommits() == 0 {
		t.Fatal("setup: record should be uncommitted")
	}
	node := r.g.Replica(1)
	node.Dev.PowerFail()
	docs, err := Rebuild(func(off, size int) []byte {
		return node.Dev.DurableRead(off, size)
	}, r.st.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if docs["journaled"]["x"] != "y" {
		t.Fatalf("acked insert lost: %v", docs)
	}
}

func TestFindFromReplica(t *testing.T) {
	r := hyperRig(t, 3, Config{})
	committed := false
	r.st.Insert("replicated", Document{"v": "42"}, func(error) {})
	r.st.Commit(func(error) { committed = true })
	r.await(t, &committed)

	for i := 0; i < 3; i++ {
		var doc Document
		var rerr error
		got := false
		r.st.FindFromReplica("replicated", i, func(d Document, err error) {
			doc, rerr = d, err
			got = true
		})
		r.await(t, &got)
		if rerr != nil || doc["v"] != "42" {
			t.Fatalf("replica %d read: %v %v", i, doc, rerr)
		}
	}

	// Missing document.
	got := false
	var rerr error
	r.st.FindFromReplica("missing", 0, func(d Document, err error) { rerr = err; got = true })
	r.await(t, &got)
	if rerr != ErrNotFound {
		t.Fatalf("missing doc: %v", rerr)
	}
}

func TestNaiveBackendEquivalence(t *testing.T) {
	r := naiveRig(t, 3, Config{})
	done := false
	r.st.Insert("doc", Document{"via": "naive"}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.await(t, &done)
	committed := false
	r.st.Commit(func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		committed = true
	})
	r.await(t, &committed)
	doc, ok := r.st.Find("doc")
	if !ok || doc["via"] != "naive" {
		t.Fatalf("naive-backed find: %v %v", doc, ok)
	}
	// Replicas hold it durably too.
	node := r.cl.Replicas()[2]
	node.Dev.PowerFail()
	docs, err := Rebuild(func(off, size int) []byte {
		return node.Dev.DurableRead(off, size)
	}, r.st.cfg)
	if err != nil || docs["doc"]["via"] != "naive" {
		t.Fatalf("naive replica rebuild: %v %v", docs, err)
	}
}

func TestFrontEndCostCharged(t *testing.T) {
	r := hyperRig(t, 2, Config{QueryParse: 50 * sim.Microsecond})
	r.cl.Client().Host.ResetAccounting()
	done := 0
	for i := 0; i < 50; i++ {
		r.st.Insert(fmt.Sprintf("d%d", i), Document{"v": "x"}, func(error) { done++ })
	}
	allDone := false
	r.eng.RunUntil(func() bool { allDone = done >= 50; return allDone }, r.eng.Now().Add(10*sim.Second))
	if !allDone {
		t.Fatalf("inserts stalled: %d/50", done)
	}
	// 50 ops × 50µs = 2.5ms of client CPU, non-trivial utilization.
	if u := r.cl.Client().Host.Utilization(); u <= 0 {
		t.Fatal("front-end cost not charged to client host")
	}
}

func TestClosedRejects(t *testing.T) {
	r := hyperRig(t, 2, Config{})
	r.st.Close()
	if err := r.st.Insert("x", Document{}, nil); err != ErrClosed {
		t.Fatalf("insert on closed store: %v", err)
	}
	if err := r.st.Update("x", Document{}, nil); err != ErrClosed {
		t.Fatalf("update on closed store: %v", err)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	img := encodeSlot("id-1", []byte(`{"a":"b"}`), 64, flagValid)
	id, body, cap, flags, _, err := decodeSlot(img)
	if err != nil || id != "id-1" || string(body) != `{"a":"b"}` || cap != 64 || flags != flagValid {
		t.Fatalf("round trip: %v %q %q", err, id, body)
	}
	img[0] = 0
	if _, _, _, _, _, err := decodeSlot(img); err != ErrCorruptSlot {
		t.Fatalf("corrupt: %v", err)
	}
}

func TestRemoveDocument(t *testing.T) {
	r := hyperRig(t, 3, Config{})
	done := false
	r.st.Insert("victim", Document{"k": "v"}, func(error) {})
	r.st.Remove("victim", func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	r.await(t, &done)
	if _, ok := r.st.Find("victim"); ok {
		t.Fatal("removed document readable on the primary")
	}
	committed := false
	r.st.Commit(func(error) { committed = true })
	r.await(t, &committed)

	node := r.g.Replica(1)
	node.Dev.PowerFail()
	docs, err := Rebuild(func(off, size int) []byte {
		return node.Dev.DurableRead(off, size)
	}, r.st.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := docs["victim"]; ok {
		t.Fatal("removed document resurrected on recovery")
	}
	// Removing a missing id is an immediate no-op ack.
	acked := false
	r.st.Remove("never-existed", func(err error) { acked = err == nil })
	if !acked {
		t.Fatal("ghost remove did not ack")
	}
}

func TestReplicaReadIsolationUnderCommits(t *testing.T) {
	// With locking on, a replica read under rdLock must observe a complete
	// document: either the old or the new version, never torn JSON —
	// §5's isolation argument for letting every replica serve reads.
	r := hyperRig(t, 3, Config{})
	big := func(tag string) Document {
		d := Document{}
		for i := 0; i < 8; i++ {
			d[fmt.Sprintf("field%d", i)] = tag
		}
		return d
	}
	seeded := false
	r.st.Insert("contended", big("v0"), func(error) {})
	r.st.Commit(func(error) { seeded = true })
	r.await(t, &seeded)

	// Interleave updates+commits with replica reads.
	updates, reads := 0, 0
	torn := 0
	for round := 0; round < 10; round++ {
		tag := fmt.Sprintf("v%d", round+1)
		r.st.Update("contended", big(tag), func(error) { updates++ })
		for rep := 0; rep < 3; rep++ {
			rep := rep
			r.st.FindFromReplica("contended", rep, func(d Document, err error) {
				reads++
				if err != nil {
					return // lock contention timeouts are acceptable here
				}
				// Consistency: every field carries the same version tag.
				first := d["field0"]
				for i := 1; i < 8; i++ {
					if d[fmt.Sprintf("field%d", i)] != first {
						torn++
					}
				}
			})
		}
	}
	committed := false
	r.st.Commit(func(error) { committed = true })
	if !r.eng.RunUntil(func() bool {
		return committed && reads >= 30 && updates >= 10
	}, r.eng.Now().Add(60*sim.Second)) {
		t.Fatalf("contended run stalled: updates=%d reads=%d committed=%v", updates, reads, committed)
	}
	if torn != 0 {
		t.Fatalf("observed %d torn reads under rdLock", torn)
	}
}
