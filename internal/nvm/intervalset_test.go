package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// shadowSet is the exact reference for intervalSet: one bool per byte.
type shadowSet []bool

func (s shadowSet) add(lo, hi int)    { s.set(lo, hi, true) }
func (s shadowSet) remove(lo, hi int) { s.set(lo, hi, false) }
func (s shadowSet) set(lo, hi int, v bool) {
	for i := lo; i < hi && i < len(s); i++ {
		if i >= 0 {
			s[i] = v
		}
	}
}
func (s shadowSet) total() int {
	n := 0
	for _, b := range s {
		if b {
			n++
		}
	}
	return n
}

// assertMatches checks the interval set against the shadow byte-for-byte and
// verifies the sorted/disjoint/coalesced invariant.
func assertMatches(t *testing.T, s *intervalSet, shadow shadowSet, step string) {
	t.Helper()
	covered := make(shadowSet, len(shadow))
	prevHi := -1
	for _, iv := range s.ivs {
		if iv.lo >= iv.hi {
			t.Fatalf("%s: empty interval [%d,%d)", step, iv.lo, iv.hi)
		}
		// Adjacent intervals must have been coalesced: prev.hi < lo strictly.
		if iv.lo <= prevHi {
			t.Fatalf("%s: intervals not disjoint/coalesced around %d (prev hi %d)", step, iv.lo, prevHi)
		}
		prevHi = iv.hi
		covered.add(iv.lo, iv.hi)
	}
	for i := range shadow {
		if shadow[i] != covered[i] {
			t.Fatalf("%s: byte %d dirty=%v in shadow, %v in intervalSet (ivs=%v)",
				step, i, shadow[i], covered[i], s.ivs)
		}
	}
	if s.total() != shadow.total() {
		t.Fatalf("%s: total %d vs shadow %d", step, s.total(), shadow.total())
	}
}

// shadowDev is the per-byte reference for the device around the set: two
// flat images and one dirty bool per byte.
type shadowDev struct {
	volatile, durable []byte
	dirty             shadowSet
}

// runDirtySetOps decodes ops as a stream of (kind, lo, len) byte triples and
// drives them through a Device and the per-byte shadow in lockstep. The low
// three bits of the first byte pick the kind and its high bits extend lo,
// which is taken modulo the device size; lengths are taken modulo the room
// left, so zero-length ranges, ranges ending at the device's last byte and
// full-device flushes all occur. Consecutive triples with lo2 == lo1+len1
// exercise the adjacency merge. The device size is not a multiple of the
// pre-image line size, so the last line is a partial one.
func runDirtySetOps(t *testing.T, ops []byte) {
	t.Helper()
	const space = 1000
	d := New(space)
	sh := shadowDev{make([]byte, space), make([]byte, space), make(shadowSet, space)}
	for n := 0; len(ops) >= 3; n++ {
		kind, lo := ops[0]%8, (int(ops[0]/8)<<8|int(ops[1]))%(space+1)
		size := int(ops[2]) % (space - lo + 1)
		if ops[2] == 255 {
			lo, size = 0, space // full-device range
		}
		ops = ops[3:]
		hi := lo + size
		fill := byte(n + 1)
		step := fmt.Sprintf("op %d kind %d [%d,%d)", n, kind, lo, hi)
		switch kind {
		case 0: // NIC-path write (add)
			data := bytes.Repeat([]byte{fill}, size)
			d.Write(lo, data)
			copy(sh.volatile[lo:], data)
			sh.dirty.add(lo, hi)
		case 1: // NIC-path write sourced from the device itself (gMEMCPY)
			src := space - hi
			d.Write(lo, d.View(src, size))
			copy(sh.volatile[lo:hi], sh.volatile[src:src+size])
			sh.dirty.add(lo, hi)
		case 2: // CPU store (remove)
			data := bytes.Repeat([]byte{fill}, size)
			d.Store(lo, data)
			copy(sh.volatile[lo:], data)
			copy(sh.durable[lo:], data)
			sh.dirty.remove(lo, hi)
		case 3: // flush-range: persists exactly the dirty bytes inside it
			want := 0
			for i := lo; i < hi; i++ {
				if sh.dirty[i] {
					sh.durable[i] = sh.volatile[i]
					want++
				}
			}
			sh.dirty.remove(lo, hi)
			if got := d.Flush(lo, size); got != want {
				t.Fatalf("%s: Flush persisted %d bytes, shadow %d", step, got, want)
			}
		case 4: // PowerFail: dirty bytes revert, the set empties
			for i := range sh.dirty {
				if sh.dirty[i] {
					sh.volatile[i] = sh.durable[i]
				}
			}
			sh.dirty.remove(0, space)
			d.PowerFail()
		case 5: // IsDirty probe
			want := false
			for i := lo; i < hi; i++ {
				want = want || sh.dirty[i]
			}
			if got := d.IsDirty(lo, size); got != want {
				t.Fatalf("%s: IsDirty = %v, shadow %v (ivs=%v)", step, got, want, d.dirty.ivs)
			}
		case 6: // CPU store built in place: View mutation, then Persist
			v := d.View(lo, size)
			for i := range v {
				v[i] ^= fill
				sh.volatile[lo+i] = v[i]
				sh.durable[lo+i] = v[i]
			}
			d.Persist(lo, size)
			sh.dirty.remove(lo, hi)
		case 7: // durable sub-range read
			if got := d.DurableRead(lo, size); !bytes.Equal(got, sh.durable[lo:hi]) {
				t.Fatalf("%s: DurableRead diverged from the shadow", step)
			}
		}
		assertMatches(t, &d.dirty, sh.dirty, step)
		if !bytes.Equal(d.Read(0, space), sh.volatile) || !bytes.Equal(d.DurableRead(0, space), sh.durable) {
			t.Fatalf("%s: device images diverged from the shadow", step)
		}
		// A pre-image is held only on a line with dirty bytes, so the slab
		// never outgrows the dirty set.
		for l, s := range d.pre.line {
			if s != 0 && !d.dirty.overlaps(l*lineSize, min((l+1)*lineSize, space)) {
				t.Fatalf("%s: clean line %d holds a pre-image", step, l)
			}
		}
	}
}

// FuzzDirtySet is the differential test of the in-place dirty set and the
// device's live and durable images against the per-byte shadow (write /
// store / flush-range / PowerFail / in-place store / durable read sequences).
func FuzzDirtySet(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 10, 10, 3, 5, 10, 0, 5, 10})                              // adjacent adds, flush through the middle, re-add the gap
	f.Add([]byte{0, 50, 10, 0, 40, 10, 0, 60, 10, 2, 45, 20, 4, 0, 0})                  // edge-abutting adds, a store that splits, power fail
	f.Add([]byte{0, 7, 0, 3, 9, 0, 1, 0, 255, 3, 0, 255})                               // zero-length ranges, full-device dirty + flush
	f.Add([]byte{24, 200, 40, 6, 250, 30, 7, 230, 60, 1, 100, 200, 4, 0, 0, 7, 0, 255}) // partial last line, in-place store across a line edge, durable reads, self-sourced write
	f.Fuzz(func(t *testing.T, ops []byte) { runDirtySetOps(t, ops) })
}

// TestDirtySetPropertyVsShadow runs the same differential over seeded random
// streams, so plain `go test` covers it without the fuzzer.
func TestDirtySetPropertyVsShadow(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ops := make([]byte, 3*4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		runDirtySetOps(t, ops)
	}
}

// TestIntervalSetAdjacentCoalescing is the regression test for adjacency
// around partial flushes: writes that abut each other (or abut the remnant
// of a partially-flushed range) must merge into one interval, and a flush
// cutting through the middle must leave exact remnants.
func TestIntervalSetAdjacentCoalescing(t *testing.T) {
	var s intervalSet
	s.add(0, 10)
	s.add(10, 20) // adjacent: must coalesce
	if len(s.ivs) != 1 || s.ivs[0] != (interval{0, 20}) {
		t.Fatalf("adjacent adds not coalesced: %v", s.ivs)
	}
	s.remove(5, 15) // partial flush through the middle
	if len(s.ivs) != 2 || s.ivs[0] != (interval{0, 5}) || s.ivs[1] != (interval{15, 20}) {
		t.Fatalf("partial remove remnants wrong: %v", s.ivs)
	}
	s.add(5, 15) // re-dirty the gap: everything merges back
	if len(s.ivs) != 1 || s.ivs[0] != (interval{0, 20}) {
		t.Fatalf("gap re-add not coalesced: %v", s.ivs)
	}
	// Abutting the left/right edges of an existing interval.
	s.remove(0, 100)
	s.add(50, 60)
	s.add(40, 50)
	s.add(60, 70)
	if len(s.ivs) != 1 || s.ivs[0] != (interval{40, 70}) {
		t.Fatalf("edge-abutting adds not coalesced: %v", s.ivs)
	}
}

// TestDeviceFlushPartialOverlapCoalescing exercises the same family through
// the Device API: a Flush overlapping two coalesced writes persists exactly
// the overlap and leaves the rest volatile.
func TestDeviceFlushPartialOverlapCoalescing(t *testing.T) {
	d := New(64)
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	d.Write(8, a)  // dirty [8,12)
	d.Write(12, b) // adjacent: dirty [8,16)
	if d.DirtyBytes() != 8 {
		t.Fatalf("dirty bytes = %d, want 8", d.DirtyBytes())
	}
	if n := d.Flush(10, 4); n != 4 { // partial overlap [10,14)
		t.Fatalf("flush persisted %d bytes, want 4", n)
	}
	if got := d.DurableRead(10, 4); got[0] != 3 || got[1] != 4 || got[2] != 5 || got[3] != 6 {
		t.Fatalf("durable [10,14) = %v", got)
	}
	if d.IsDirty(10, 4) {
		t.Fatal("flushed range still dirty")
	}
	if !d.IsDirty(8, 2) || !d.IsDirty(14, 2) {
		t.Fatal("unflushed remnants lost their dirty state")
	}
	if d.DirtyBytes() != 4 {
		t.Fatalf("dirty bytes after partial flush = %d, want 4", d.DirtyBytes())
	}
	d.PowerFail()
	if got := d.Read(8, 8); got[2] != 3 || got[3] != 4 || got[4] != 5 || got[5] != 6 {
		t.Fatalf("post-powerfail live view lost flushed bytes: %v", got)
	}
	if got := d.Read(8, 2); got[0] != 0 || got[1] != 0 {
		t.Fatalf("post-powerfail unflushed bytes survived: %v", got)
	}
}
