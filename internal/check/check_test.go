package check

import (
	"encoding/binary"
	"strings"
	"testing"

	"hyperloop/internal/locks"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

type memStore []byte

func (m memStore) WriteLocal(off int, data []byte) { copy(m[off:], data) }
func (m memStore) Window(off, size int) []byte     { return m[off : off+size] }
func (m memStore) Persist(off, size int)           {}
func (m memStore) ReadLocal(off, size int) []byte  { return m[off : off+size] }

func img(name string, b []byte) Image {
	return Image{Name: name, Read: func(off, size int) []byte { return b[off : off+size] }}
}

const (
	logBase = 0
	logSize = 8 << 10
	objBase = logSize
	storeSz = 16 << 10
)

// buildLogs creates a client plus two replica stores sharing a WAL via the
// local replicator, appends n records, and executes exec of them.
func buildLogs(t *testing.T, n, exec int) (client, r1, r2 memStore) {
	t.Helper()
	client = make(memStore, storeSz)
	r1 = make(memStore, storeSz)
	r2 = make(memStore, storeSz)
	l := wal.New(client, wal.LocalReplicator{Stores: []wal.Store{client, r1, r2}}, logBase, logSize, nil)
	for i := 0; i < n; i++ {
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint64(payload, uint64(i+1))
		err := l.Append([]wal.Entry{{Offset: objBase + 8*i, Data: payload}}, nil)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	for i := 0; i < exec; i++ {
		if err := l.ExecuteAndAdvance(nil); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
	}
	return client, r1, r2
}

func TestWALSoundnessAndPrefix(t *testing.T) {
	client, r1, r2 := buildLogs(t, 3, 1)
	imgs := []Image{img("client", client), img("r1", r1), img("r2", r2)}
	if res := WALSoundness(imgs, logBase, logSize); !res.Pass() {
		t.Fatalf("soundness: %v", res.Err)
	}
	if res := WALPrefix(imgs, logBase, logSize); !res.Pass() {
		t.Fatalf("prefix: %v", res.Err)
	}
}

func TestWALSoundnessCatchesBadHeader(t *testing.T) {
	_, r1, r2 := buildLogs(t, 2, 0)
	r1[0] ^= 0xFF // clobber the log magic
	res := WALSoundness([]Image{img("r1", r1), img("r2", r2)}, logBase, logSize)
	if res.Pass() {
		t.Fatal("soundness passed with corrupt header")
	}
	if !strings.Contains(res.Err.Error(), "r1") {
		t.Fatalf("error does not name the bad image: %v", res.Err)
	}
}

func TestWALPrefixAllowsLaggingSuffix(t *testing.T) {
	client, r1, r2 := buildLogs(t, 3, 0)
	// Tear r2's last record: flip its final byte so its CRC fails. Recover
	// stops at the torn record, leaving r2 a strict prefix of the others.
	rec, err := wal.Recover(img("r2", r2).Read, logBase, logSize)
	if err != nil || len(rec.Records) != 3 {
		t.Fatalf("setup: %d records, err %v", len(rec.Records), err)
	}
	const ringStart = logBase + 32 // past the log header
	r2[ringStart+rec.Tail-1] ^= 0xFF
	rec, err = wal.Recover(img("r2", r2).Read, logBase, logSize)
	if err != nil || len(rec.Records) != 2 {
		t.Fatalf("tear ineffective: %d records, err %v", len(rec.Records), err)
	}
	res := WALPrefix([]Image{img("client", client), img("r1", r1), img("r2", r2)}, logBase, logSize)
	if !res.Pass() {
		t.Fatalf("prefix rejected a lagging replica: %v", res.Err)
	}
}

func TestWALPrefixCatchesHeaderDivergence(t *testing.T) {
	client, r1, _ := buildLogs(t, 2, 0)
	r1[8]++ // bump the recorded head offset
	res := WALPrefix([]Image{img("client", client), img("r1", r1)}, logBase, logSize)
	if res.Pass() {
		t.Fatal("prefix passed with diverged headers")
	}
}

func TestLocksFree(t *testing.T) {
	buf := make([]byte, 8*16)
	imgs := []Image{img("a", buf)}
	if res := LocksFree(imgs, 0, 16); !res.Pass() {
		t.Fatalf("clean table: %v", res.Err)
	}
	binary.LittleEndian.PutUint64(buf[8*5:], locks.Word(3, 0))
	if res := LocksFree(imgs, 0, 16); res.Pass() {
		t.Fatal("missed leaked writer")
	} else if !strings.Contains(res.Err.Error(), "stripe 5") {
		t.Fatalf("error does not name the stripe: %v", res.Err)
	}
	binary.LittleEndian.PutUint64(buf[8*5:], locks.Word(0, 2))
	if res := LocksFree(imgs, 0, 16); res.Pass() {
		t.Fatal("missed leaked readers")
	}
}

func TestRegionEqual(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	for i := range a {
		a[i] = byte(i)
		b[i] = byte(i)
	}
	if res := RegionEqual("converge", img("ref", a), []Image{img("b", b)}, 64, 128); !res.Pass() {
		t.Fatalf("equal regions: %v", res.Err)
	}
	b[100] ^= 1
	res := RegionEqual("converge", img("ref", a), []Image{img("b", b)}, 64, 128)
	if res.Pass() {
		t.Fatal("missed divergence")
	}
	if !strings.Contains(res.Err.Error(), "offset 100") {
		t.Fatalf("error does not locate the byte: %v", res.Err)
	}
}

func stamp(buf []byte, slot int, id uint64) {
	binary.LittleEndian.PutUint64(buf[8*slot:], id)
}

func TestTxnAtomicity(t *testing.T) {
	const nSlots = 16
	txns := []TxnRecord{
		{ID: 101, Slots: []int{0, 1}, Acked: true},
		{ID: 102, Slots: []int{1, 2, 3}, Acked: false}, // indeterminate; slot 1 shared
		{ID: 103, Slots: []int{5}, Acked: true},
	}
	fresh := func() []byte {
		buf := make([]byte, 8*nSlots)
		stamp(buf, 0, 101)
		stamp(buf, 1, 102) // shared slot: either writer's stamp is valid
		stamp(buf, 5, 103)
		return buf
	}

	// Indeterminate txn fully absent on its exclusive slots (2, 3): OK.
	if res := TxnAtomicity(img("m", fresh()), 0, nSlots, txns); !res.Pass() {
		t.Fatalf("valid state rejected: %v", res.Err)
	}
	// Fully applied: also OK.
	buf := fresh()
	stamp(buf, 2, 102)
	stamp(buf, 3, 102)
	if res := TxnAtomicity(img("m", buf), 0, nSlots, txns); !res.Pass() {
		t.Fatalf("fully-applied indeterminate rejected: %v", res.Err)
	}
	// Partially applied indeterminate: FAIL.
	buf = fresh()
	stamp(buf, 2, 102)
	if res := TxnAtomicity(img("m", buf), 0, nSlots, txns); res.Pass() {
		t.Fatal("missed partial application")
	}
	// Acked txn missing an exclusive slot: FAIL.
	buf = fresh()
	stamp(buf, 0, 0)
	if res := TxnAtomicity(img("m", buf), 0, nSlots, txns); res.Pass() {
		t.Fatal("missed lost acked write")
	}
	// Slot stamped by a transaction that never wrote it: FAIL.
	buf = fresh()
	stamp(buf, 7, 103)
	if res := TxnAtomicity(img("m", buf), 0, nSlots, txns); res.Pass() {
		t.Fatal("missed misdirected write")
	}
	// Slot stamped with an unknown ID: FAIL.
	buf = fresh()
	stamp(buf, 4, 999)
	if res := TxnAtomicity(img("m", buf), 0, nSlots, txns); res.Pass() {
		t.Fatal("missed foreign stamp")
	}
}

func TestMembership(t *testing.T) {
	bound := 5 * sim.Millisecond
	probe := sim.Millisecond
	if res := Membership(1, true, false, 3, 3, 4*sim.Millisecond, bound, probe); !res.Pass() {
		t.Fatalf("healthy failover rejected: %v", res.Err)
	}
	if res := Membership(0, false, false, 3, 3, 0, bound, probe); !res.Pass() {
		t.Fatalf("healthy no-failover rejected: %v", res.Err)
	}
	if res := Membership(0, true, false, 3, 3, 0, bound, probe); res.Pass() {
		t.Fatal("missed absent failover")
	}
	if res := Membership(1, false, false, 3, 3, 0, bound, probe); res.Pass() {
		t.Fatal("missed spurious failover")
	}
	if res := Membership(1, true, true, 3, 3, 4*sim.Millisecond, bound, probe); res.Pass() {
		t.Fatal("missed stuck-paused chain")
	}
	if res := Membership(1, true, false, 2, 3, 4*sim.Millisecond, bound, probe); res.Pass() {
		t.Fatal("missed short membership")
	}
	if res := Membership(1, true, false, 3, 3, 20*sim.Millisecond, bound, probe); res.Pass() {
		t.Fatal("missed slow detection")
	}
}
