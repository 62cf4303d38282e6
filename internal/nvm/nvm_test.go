package nvm

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(1024)
	d.Write(100, []byte("hyperloop"))
	if got := d.Read(100, 9); string(got) != "hyperloop" {
		t.Fatalf("read back %q", got)
	}
}

func TestWriteIsVolatileUntilFlush(t *testing.T) {
	d := New(1024)
	d.Write(0, []byte("important"))
	if !d.IsDirty(0, 9) {
		t.Fatal("write not tracked dirty")
	}
	if got := d.DurableRead(0, 9); !bytes.Equal(got, make([]byte, 9)) {
		t.Fatalf("durable media contains unflushed data: %q", got)
	}
	d.PowerFail()
	if got := d.Read(0, 9); !bytes.Equal(got, make([]byte, 9)) {
		t.Fatalf("unflushed write survived power failure: %q", got)
	}
}

func TestFlushPersists(t *testing.T) {
	d := New(1024)
	d.Write(0, []byte("important"))
	if n := d.Flush(0, 9); n != 9 {
		t.Fatalf("flushed %d bytes, want 9", n)
	}
	if d.IsDirty(0, 9) {
		t.Fatal("flushed range still dirty")
	}
	d.PowerFail()
	if got := d.Read(0, 9); string(got) != "important" {
		t.Fatalf("flushed write lost on power failure: %q", got)
	}
}

func TestPartialFlush(t *testing.T) {
	d := New(1024)
	d.Write(0, []byte("aaaabbbb"))
	d.Flush(0, 4) // persist only the first half
	d.PowerFail()
	got := d.Read(0, 8)
	if string(got[:4]) != "aaaa" {
		t.Fatalf("flushed prefix lost: %q", got)
	}
	if string(got[4:]) == "bbbb" {
		t.Fatalf("unflushed suffix survived: %q", got)
	}
}

func TestStoreIsImmediatelyDurable(t *testing.T) {
	d := New(1024)
	d.Store(10, []byte("cpu-store"))
	d.PowerFail()
	if got := d.Read(10, 9); string(got) != "cpu-store" {
		t.Fatalf("CPU store not durable: %q", got)
	}
}

func TestStoreSupersedesDirtyRange(t *testing.T) {
	d := New(1024)
	d.Write(0, []byte("nic-write"))
	d.Store(0, []byte("cpu-write"))
	if d.IsDirty(0, 9) {
		t.Fatal("store left range dirty")
	}
	d.PowerFail()
	if got := d.Read(0, 9); string(got) != "cpu-write" {
		t.Fatalf("store lost: %q", got)
	}
}

func TestViewSeesVolatileWrite(t *testing.T) {
	d := New(64)
	d.Write(0, []byte("rdmapath"))
	if got := d.View(0, 8); string(got) != "rdmapath" {
		t.Fatalf("write invisible through view: %q", got)
	}
	d.PowerFail()
	if got := d.View(0, 8); string(got) == "rdmapath" {
		t.Fatal("unflushed write survived power failure")
	}
}

func TestFlushAllAndDirtyBytes(t *testing.T) {
	d := New(1024)
	d.Write(0, make([]byte, 100))
	d.Write(500, make([]byte, 50))
	if db := d.DirtyBytes(); db != 150 {
		t.Fatalf("dirty bytes = %d, want 150", db)
	}
	if n := d.FlushAll(); n != 150 {
		t.Fatalf("FlushAll persisted %d, want 150", n)
	}
	if d.DirtyBytes() != 0 {
		t.Fatal("dirty bytes after FlushAll")
	}
}

func TestOverlappingWritesMergeDirty(t *testing.T) {
	d := New(1024)
	d.Write(0, make([]byte, 10))
	d.Write(5, make([]byte, 10))
	if db := d.DirtyBytes(); db != 15 {
		t.Fatalf("merged dirty bytes = %d, want 15", db)
	}
	d.Write(20, make([]byte, 5))
	if db := d.DirtyBytes(); db != 20 {
		t.Fatalf("dirty bytes = %d, want 20", db)
	}
	// Adjacent intervals merge.
	d.Write(15, make([]byte, 5))
	if db := d.DirtyBytes(); db != 25 {
		t.Fatalf("adjacent dirty bytes = %d, want 25", db)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := New(16)
	for _, fn := range []func(){
		func() { d.Write(10, make([]byte, 8)) },
		func() { d.Read(-1, 4) },
		func() { d.Flush(0, 17) },
		func() { d.View(16, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-bounds access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestStatsCounters(t *testing.T) {
	d := New(64)
	d.Write(0, []byte("abc"))
	d.Store(10, []byte("de"))
	d.Flush(0, 3)
	d.PowerFail()
	s := d.Stats()
	if s.Writes != 1 || s.Stores != 1 || s.Flushes != 1 || s.PowerFails != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.BytesDirty != 3 || s.BytesSynced != 3 {
		t.Fatalf("byte stats: %+v", s)
	}
}

func TestEmptyWrite(t *testing.T) {
	d := New(16)
	d.Write(0, nil)
	if d.DirtyBytes() != 0 {
		t.Fatal("empty write dirtied device")
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// Property: after any sequence of writes followed by FlushAll and PowerFail,
// the live view equals what was written (flush makes everything durable).
func TestPropertyFlushAllIsComplete(t *testing.T) {
	f := func(ops []struct {
		Off  uint8
		Data []byte
	}) bool {
		d := New(512)
		shadow := make([]byte, 512)
		for _, op := range ops {
			off := int(op.Off)
			data := op.Data
			if off+len(data) > 512 {
				data = data[:512-off]
			}
			d.Write(off, data)
			copy(shadow[off:], data)
		}
		d.FlushAll()
		d.PowerFail()
		return bytes.Equal(d.Read(0, 512), shadow)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: without a flush, power failure restores exactly the durable
// prefix state (all zero here).
func TestPropertyUnflushedAlwaysLost(t *testing.T) {
	f := func(offs []uint8, size uint8) bool {
		d := New(512)
		n := int(size%64) + 1
		for _, o := range offs {
			off := int(o) % (512 - n)
			d.Write(off, bytes.Repeat([]byte{0xAB}, n))
		}
		d.PowerFail()
		return bytes.Equal(d.Read(0, 512), make([]byte, 512))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSetRemoveSplits(t *testing.T) {
	var s intervalSet
	s.add(0, 100)
	s.remove(40, 60)
	if s.total() != 80 {
		t.Fatalf("total after split = %d, want 80", s.total())
	}
	if len(s.ivs) != 2 || s.ivs[0] != (interval{0, 40}) || s.ivs[1] != (interval{60, 100}) {
		t.Fatalf("split intervals: %+v", s.ivs)
	}
}

// A drain is clipped to its range: it reports and removes only the dirty
// bytes inside [lo, hi) and leaves exact remnants on both sides.
func TestIntervalSetDrainClips(t *testing.T) {
	var s intervalSet
	s.add(10, 30)
	if n := s.drain(20, 25, nil); n != 5 {
		t.Fatalf("drain(20,25) covered %d bytes, want 5", n)
	}
	if len(s.ivs) != 2 || s.ivs[0] != (interval{10, 20}) || s.ivs[1] != (interval{25, 30}) {
		t.Fatalf("clip remnants: %+v", s.ivs)
	}
	if s.overlaps(30, 40) || s.overlaps(20, 25) {
		t.Fatalf("phantom overlap: %+v", s.ivs)
	}
	if n := s.drain(30, 40, nil); n != 0 || len(s.ivs) != 2 {
		t.Fatalf("drain of a clean range covered %d bytes, set now %+v", n, s.ivs)
	}
}

// Steady-state dirty tracking allocates nothing: the set splices inside its
// backing array, and pre-images reuse released slab slots, once both have
// grown to the working set's size.
func TestWriteFlushAllocFree(t *testing.T) {
	d := New(1 << 16)
	buf := make([]byte, 3072)
	cycle := func() {
		for off := 0; off < 1<<16; off += 4096 {
			buf[0]++
			d.Write(off, buf[:1024])
		}
		d.Write(1024, buf) // merges two neighbours
		d.Flush(512, 8192) // splits one, swallows another
		if !d.IsDirty(0, 512) {
			t.Fatal("remnant lost")
		}
		d.FlushAll()
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("steady-state Write+Flush allocates %v times per cycle", n)
	}
}

// heldPreimages counts the lines holding a pre-image, checking the slab's
// accounting on the way: every slot is held or free.
func heldPreimages(t *testing.T, d *Device) int {
	t.Helper()
	held := 0
	for _, s := range d.pre.line {
		if s != 0 {
			held++
		}
	}
	if slots := len(d.pre.chunks) * chunkLines; held+len(d.pre.free) != slots {
		t.Fatalf("%d held + %d free slots, %d in the slab", held, len(d.pre.free), slots)
	}
	return held
}

// A drain that leaves a line's live bytes durable releases its pre-image:
// after FlushAll, and separately after PowerFail, no line holds one, and
// dirtying the same lines again reuses the slab rather than growing it.
func TestPreimagesReleased(t *testing.T) {
	const size = 1<<20 - 100 // not a multiple of the line size
	for _, end := range []struct {
		name  string
		drain func(*Device)
	}{
		{"FlushAll", func(d *Device) { d.FlushAll() }},
		{"PowerFail", (*Device).PowerFail},
	} {
		d := New(size)
		dirty := func() {
			for off := 0; off < size-3000; off += 7919 {
				d.Write(off, bytes.Repeat([]byte{byte(off)}, 3000))
			}
			d.Write(size-10, []byte("last line!"))
			d.Flush(0, size/2)
			d.Store(size/2, make([]byte, 5000))
		}
		dirty()
		if heldPreimages(t, d) == 0 {
			t.Fatalf("%s: no pre-images before the drain", end.name)
		}
		end.drain(d)
		if n := heldPreimages(t, d); n != 0 {
			t.Fatalf("%s left %d lines holding a pre-image", end.name, n)
		}
		chunks := len(d.pre.chunks)
		dirty()
		end.drain(d)
		if n := heldPreimages(t, d); n != 0 || len(d.pre.chunks) != chunks {
			t.Fatalf("%s: second round holds %d pre-images in %d chunks (first round %d chunks)",
				end.name, n, len(d.pre.chunks), chunks)
		}
	}
}

// A new device holds one image: the live bytes plus a 4-byte index entry
// per line, not a second full-size durable array.
func TestNewHoldsOneImage(t *testing.T) {
	const size = 32 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(size)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if got := after.TotalAlloc - before.TotalAlloc; got > size+size/32 {
		t.Fatalf("New(%d) allocated %d bytes, want at most %d", size, got, size+size/32)
	}
}
