package rdma

import (
	"fmt"

	"hyperloop/internal/nvm"
)

// Backing is the storage a memory region is registered over. Implementations
// decide durability semantics: RAM forgets on power failure tracking,
// NVM tracks NIC-cache dirtiness and supports Flush.
type Backing interface {
	// ReadAt copies len(dst) bytes starting at off into dst.
	ReadAt(off int, dst []byte)
	// WriteAt copies src to off. For NVM backings the bytes are volatile
	// (NIC cache) until Flush.
	WriteAt(off int, src []byte)
	// Flush makes [off, off+n) durable. No-op for RAM.
	Flush(off, n int)
	// Len returns the backing size in bytes.
	Len() int
}

// RAMBacking is plain volatile memory (client-side buffers, staging areas).
type RAMBacking struct{ buf []byte }

// NewRAMBacking allocates n bytes of volatile memory.
func NewRAMBacking(n int) *RAMBacking { return &RAMBacking{buf: make([]byte, n)} }

// ReadAt implements Backing.
func (r *RAMBacking) ReadAt(off int, dst []byte) { copy(dst, r.buf[off:off+len(dst)]) }

// WriteAt implements Backing.
func (r *RAMBacking) WriteAt(off int, src []byte) { copy(r.buf[off:off+len(src)], src) }

// Flush implements Backing (no durability concept for RAM).
func (r *RAMBacking) Flush(off, n int) {}

// Len implements Backing.
func (r *RAMBacking) Len() int { return len(r.buf) }

// Bytes exposes the raw buffer for local (CPU) access in tests and apps.
func (r *RAMBacking) Bytes() []byte { return r.buf }

// NVMBacking registers a window of an nvm.Device. NIC-path writes go through
// the device's volatile-cache model.
type NVMBacking struct {
	dev  *nvm.Device
	base int
	size int
}

// NewNVMBacking registers the window [base, base+size) of dev.
func NewNVMBacking(dev *nvm.Device, base, size int) *NVMBacking {
	if base < 0 || size < 0 || base+size > dev.Size() {
		panic(fmt.Sprintf("rdma: NVM window [%d,%d) outside device of %d", base, base+size, dev.Size()))
	}
	return &NVMBacking{dev: dev, base: base, size: size}
}

// ReadAt implements Backing.
func (b *NVMBacking) ReadAt(off int, dst []byte) { b.dev.ReadInto(b.base+off, dst) }

// WriteAt implements Backing: a NIC-path write, volatile until flushed.
func (b *NVMBacking) WriteAt(off int, src []byte) { b.dev.Write(b.base+off, src) }

// Flush implements Backing.
func (b *NVMBacking) Flush(off, n int) { b.dev.Flush(b.base+off, n) }

// Len implements Backing.
func (b *NVMBacking) Len() int { return b.size }

// Device returns the underlying NVM device.
func (b *NVMBacking) Device() *nvm.Device { return b.dev }

// Base returns the window's offset within the device.
func (b *NVMBacking) Base() int { return b.base }

// MemoryRegion is registered memory addressable by (key, offset). Offsets
// are region-relative, matching how the HyperLoop library computes remote
// descriptors.
type MemoryRegion struct {
	lkey    uint32
	rkey    uint32
	access  Access
	backing Backing
	// onWrite, if set, observes every NIC write into the region. WQE
	// tables use it to notice remotely-manipulated descriptors.
	onWrite func(off, n int)
	// word stages the NIC's 8-byte local accesses (atomics, program
	// operands): a stack buffer would escape through the Backing interface
	// and cost an allocation per access.
	word [8]byte
}

// LKey returns the local access key.
func (m *MemoryRegion) LKey() uint32 { return m.lkey }

// RKey returns the remote access key.
func (m *MemoryRegion) RKey() uint32 { return m.rkey }

// Len returns the region size.
func (m *MemoryRegion) Len() int { return m.backing.Len() }

// Backing returns the registered storage.
func (m *MemoryRegion) Backing() Backing { return m.backing }

func (m *MemoryRegion) contains(off, n int) bool {
	return off >= 0 && n >= 0 && off+n <= m.backing.Len()
}

// write performs a NIC write with bounds already validated by the caller.
func (m *MemoryRegion) write(off int, src []byte) {
	m.backing.WriteAt(off, src)
	if m.onWrite != nil {
		m.onWrite(off, len(src))
	}
}

// read copies out of the region.
func (m *MemoryRegion) read(off int, dst []byte) {
	m.backing.ReadAt(off, dst)
}

// readU64 fetches the little-endian word at off (bounds validated by the
// caller).
func (m *MemoryRegion) readU64(off int) uint64 {
	m.backing.ReadAt(off, m.word[:])
	return le64(m.word[:])
}

// writeU64 performs a NIC write of the little-endian word v at off.
func (m *MemoryRegion) writeU64(off int, v uint64) {
	putLE64(m.word[:], v)
	m.write(off, m.word[:])
}
