// Package nvm models a byte-addressable non-volatile memory device fronted
// by a volatile NIC-side cache — the hardware combination HyperLoop targets
// (battery-backed DRAM in the paper's testbed, §6).
//
// The durability hazard the paper's gFLUSH primitive exists to close is
// modeled explicitly: an RDMA WRITE is acknowledged once data reaches the
// NIC's volatile cache, so a power failure between the ACK and the cache
// drain loses the write. Flush (the 0-byte RDMA READ trick) drains the
// cache deterministically; PowerFail discards whatever has not drained.
package nvm

import (
	"bytes"
	"fmt"
)

// lineSize is the granularity at which the durable image is kept apart from
// the live one: a write saves the pre-image of every line it touches.
const lineSize = 256

// chunkLines is the number of pre-image slots in one slab chunk (16 KiB).
const chunkLines = 64

// Device is a simulated NVM DIMM. The zero value is unusable; use New.
//
// One byte array holds the live image — what reads observe (NIC cache +
// media, coherent view). The durable image — what survives a power failure
// — is the live image except on lines that hold a saved pre-image: a line's
// pre-image is its durable bytes, kept only while its live bytes may differ.
//
// NIC-path writes (Write) land in the live image and are tracked dirty until
// a Flush persists them. CPU-path writes (Store) model a store followed by a
// cache-line write-back (CLWB+fence): they persist immediately, since host
// stores do not traverse the NIC cache.
type Device struct {
	volatile []byte
	dirty    intervalSet
	pre      preimages

	writes      uint64
	stores      uint64
	flushes     uint64
	bytesDirty  uint64
	bytesSynced uint64
	powerFails  uint64
}

// preimages maps lines to saved pre-images. line[l] is 1 + the slab slot of
// line l's pre-image, or 0 when its durable bytes are its live bytes. Slots
// live in fixed chunks that are never copied, and every slot not in use is
// on the free list: the slab grows one chunk at a time, only when the free
// list is empty, so it holds at most the high-water mark of lines with a
// pre-image plus one chunk.
type preimages struct {
	line   []int32
	chunks [][]byte
	free   []int32
}

// New creates a device with the given capacity in bytes.
func New(size int) *Device {
	if size <= 0 {
		panic("nvm: non-positive device size")
	}
	return &Device{
		volatile: make([]byte, size),
		pre:      preimages{line: make([]int32, (size+lineSize-1)/lineSize)},
	}
}

// Size returns the device capacity.
func (d *Device) Size() int { return len(d.volatile) }

func (d *Device) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(d.volatile) {
		panic(fmt.Sprintf("nvm: access [%d, %d) outside device of %d bytes", off, off+n, len(d.volatile)))
	}
}

// Write performs a NIC-path write: data becomes visible immediately but is
// volatile until the covering range is flushed. data may alias the device.
func (d *Device) Write(off int, data []byte) {
	d.check(off, len(data))
	if len(data) == 0 {
		return
	}
	for l := off / lineSize; l*lineSize < off+len(data); l++ {
		d.save(l)
	}
	copy(d.volatile[off:], data)
	d.dirty.add(off, off+len(data))
	d.writes++
	d.bytesDirty += uint64(len(data))
}

// Store performs a CPU-path persistent write (store + CLWB + fence): data is
// visible and durable at once.
func (d *Device) Store(off int, data []byte) {
	d.check(off, len(data))
	copy(d.volatile[off:], data)
	// A host store also supersedes any pending NIC-cache line for the range.
	d.Persist(off, len(data))
}

// Persist makes the live contents of [off, off+n) durable: the second half
// of a CPU-path store whose bytes were written in place through View. A
// View mutation followed by Persist over the same range is exactly one
// Store — same images, same dirty set, same counter.
func (d *Device) Persist(off, n int) {
	d.check(off, n)
	d.persistRun(off, off+n)
	d.dirty.remove(off, off+n)
	d.stores++
}

// Read returns a copy of the live (volatile-coherent) contents.
func (d *Device) Read(off, n int) []byte {
	d.check(off, n)
	out := make([]byte, n)
	copy(out, d.volatile[off:off+n])
	return out
}

// ReadInto copies live contents into dst and returns the bytes copied.
func (d *Device) ReadInto(off int, dst []byte) int {
	d.check(off, len(dst))
	return copy(dst, d.volatile[off:off+len(dst)])
}

// View returns the live backing slice for [off, off+n); it exists so the
// RDMA layer can register memory regions over device ranges and a CPU store
// can be built in place. Bytes written through it are tracked for
// durability only once Persist covers them, within the same event: until
// then the durable image of a line without a pre-image follows them.
func (d *Device) View(off, n int) []byte {
	d.check(off, n)
	return d.volatile[off : off+n]
}

// Flush drains any dirty (NIC-cached) bytes overlapping [off, off+n) to
// durable media. It returns the number of bytes persisted.
func (d *Device) Flush(off, n int) int {
	d.check(off, n)
	synced := d.dirty.drain(off, off+n, d.persistRun)
	d.flushes++
	d.bytesSynced += uint64(synced)
	return synced
}

// FlushAll drains the entire cache.
func (d *Device) FlushAll() int { return d.Flush(0, len(d.volatile)) }

// DirtyBytes returns the number of bytes currently volatile.
func (d *Device) DirtyBytes() int { return d.dirty.total() }

// IsDirty reports whether any byte in [off, off+n) is volatile.
func (d *Device) IsDirty(off, n int) bool {
	d.check(off, n)
	return d.dirty.overlaps(off, off+n)
}

// PowerFail simulates losing power: all un-flushed NIC-cache contents are
// discarded and the live view reverts to durable state.
func (d *Device) PowerFail() {
	d.dirty.drain(0, len(d.volatile), d.revertRun)
	d.powerFails++
}

// DurableRead returns a copy of the durable contents (what recovery sees).
func (d *Device) DurableRead(off, n int) []byte {
	d.check(off, n)
	out := make([]byte, n)
	copy(out, d.volatile[off:off+n])
	for l := off / lineSize; l*lineSize < off+n; l++ {
		if img := d.image(l); img != nil {
			base := l * lineSize
			lo, hi := max(off, base), min(off+n, base+len(img))
			copy(out[lo-off:hi-off], img[lo-base:hi-base])
		}
	}
	return out
}

// image returns line l's saved pre-image, or nil when it holds none.
func (d *Device) image(l int) []byte {
	s := int(d.pre.line[l]) - 1
	if s < 0 {
		return nil
	}
	at := s % chunkLines * lineSize
	return d.pre.chunks[s/chunkLines][at : at+min(lineSize, len(d.volatile)-l*lineSize)]
}

// save keeps line l's live bytes as its pre-image unless it holds one.
func (d *Device) save(l int) {
	p := &d.pre
	if p.line[l] != 0 {
		return
	}
	if len(p.free) == 0 {
		first := int32(len(p.chunks)) * chunkLines
		p.chunks = append(p.chunks, make([]byte, chunkLines*lineSize))
		for s := first + chunkLines - 1; s >= first; s-- {
			p.free = append(p.free, s)
		}
	}
	n := len(p.free) - 1
	p.line[l] = p.free[n] + 1
	p.free = p.free[:n]
	base := l * lineSize
	img := d.image(l)
	copy(img, d.volatile[base:base+len(img)])
}

// persistRun makes the live bytes [lo, hi) durable (a drained or persisted
// run) and revertRun restores the durable bytes over them (a run a power
// failure discards).
func (d *Device) persistRun(lo, hi int) { d.syncRun(lo, hi, false) }
func (d *Device) revertRun(lo, hi int)  { d.syncRun(lo, hi, true) }

// syncRun brings the live and durable bytes of [lo, hi) together on every
// line with a pre-image, and releases each pre-image that then equals its
// whole live line. The release is exact: such a line's durable bytes are
// its live bytes. Only the line's bytes outside the run need comparing, so
// a run covering a whole line releases it without a copy. The walk is
// bounded by [lo, hi), never by a wider range.
func (d *Device) syncRun(lo, hi int, revert bool) {
	for l := lo / lineSize; l*lineSize < hi; l++ {
		img := d.image(l)
		if img == nil {
			continue
		}
		base := l * lineSize
		live := d.volatile[base : base+len(img)]
		a, b := max(lo, base)-base, min(hi, base+len(img))-base
		if revert {
			copy(live[a:b], img[a:b])
		}
		if bytes.Equal(img[:a], live[:a]) && bytes.Equal(img[b:], live[b:]) {
			d.pre.free = append(d.pre.free, d.pre.line[l]-1)
			d.pre.line[l] = 0
		} else if !revert {
			copy(img[a:b], live[a:b])
		}
	}
}

// Stats is a snapshot of device activity counters.
type Stats struct {
	Writes      uint64 // NIC-path writes
	Stores      uint64 // CPU-path persistent stores
	Flushes     uint64 // flush operations
	BytesDirty  uint64 // cumulative bytes written via the NIC path
	BytesSynced uint64 // cumulative bytes persisted by flushes
	PowerFails  uint64
}

// Stats returns a snapshot of activity counters.
func (d *Device) Stats() Stats {
	return Stats{
		Writes:      d.writes,
		Stores:      d.stores,
		Flushes:     d.flushes,
		BytesDirty:  d.bytesDirty,
		BytesSynced: d.bytesSynced,
		PowerFails:  d.powerFails,
	}
}

// interval is a half-open dirty range.
type interval struct{ lo, hi int }

// intervalSet maintains sorted, disjoint, merged intervals in place: an
// operation binary-searches the first interval it touches and splices the
// run it covers inside the existing backing array, so it costs
// O(log n + run) and allocates only when the set grows past its capacity.
type intervalSet struct {
	ivs []interval
}

// firstEndingAfter returns the index of the first interval with hi > x
// (len(ivs) when there is none). Intervals are disjoint and sorted, so their
// hi bounds are sorted too.
func (s *intervalSet) firstEndingAfter(x int) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ivs[mid].hi > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// splice replaces the run ivs[i:j] with n slots starting at i, shifting the
// tail in place, and returns them for the caller to fill. n exceeds j-i by
// at most one (an insert, or a remove that splits one interval in two).
func (s *intervalSet) splice(i, j, n int) []interval {
	old := len(s.ivs)
	if d := n - (j - i); d > 0 {
		s.ivs = append(s.ivs, interval{})
		copy(s.ivs[j+d:], s.ivs[j:old])
	} else if d < 0 {
		copy(s.ivs[i+n:], s.ivs[j:])
		s.ivs = s.ivs[:old+d]
	}
	return s.ivs[i : i+n]
}

// add marks [lo, hi) dirty, merging every interval it overlaps or abuts.
func (s *intervalSet) add(lo, hi int) {
	if lo >= hi {
		return
	}
	i := s.firstEndingAfter(lo - 1) // first with hi >= lo: adjacency merges
	j := i
	for j < len(s.ivs) && s.ivs[j].lo <= hi {
		j++
	}
	if i < j {
		lo = min(lo, s.ivs[i].lo)
		hi = max(hi, s.ivs[j-1].hi)
	}
	s.splice(i, j, 1)[0] = interval{lo, hi}
}

// remove clears [lo, hi), keeping the parts of boundary intervals outside it.
func (s *intervalSet) remove(lo, hi int) {
	s.drain(lo, hi, nil)
}

// drain removes [lo, hi) from the set and, when visit is non-nil, hands it
// each removed (dirty) run on the way: one walk over the overlapped run
// serves Flush (persist each run) and PowerFail (revert each run). It
// returns the number of dirty bytes that were in the range.
func (s *intervalSet) drain(lo, hi int, visit func(lo, hi int)) int {
	if lo >= hi {
		return 0
	}
	i := s.firstEndingAfter(lo)
	j := i
	n := 0
	for ; j < len(s.ivs) && s.ivs[j].lo < hi; j++ {
		clo, chi := max(lo, s.ivs[j].lo), min(hi, s.ivs[j].hi)
		if visit != nil {
			visit(clo, chi)
		}
		n += chi - clo
	}
	if i == j {
		return 0
	}
	left := interval{s.ivs[i].lo, lo}    // survives below the range
	right := interval{hi, s.ivs[j-1].hi} // survives above it
	keep := 0
	if left.lo < left.hi {
		keep++
	}
	if right.lo < right.hi {
		keep++
	}
	out := s.splice(i, j, keep)
	if left.lo < left.hi {
		out[0] = left
	}
	if right.lo < right.hi {
		out[keep-1] = right
	}
	return n
}

// overlaps reports whether any byte of [lo, hi) is in the set.
func (s *intervalSet) overlaps(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	i := s.firstEndingAfter(lo)
	return i < len(s.ivs) && s.ivs[i].lo < hi
}

func (s *intervalSet) total() int {
	n := 0
	for _, iv := range s.ivs {
		n += iv.hi - iv.lo
	}
	return n
}
