package rdma

import (
	"encoding/binary"
	"fmt"
)

// WQE slot geometry. Descriptors are fixed 128-byte images in a registered
// ring, encoded little-endian, so that a remote WRITE or a RECV scatter can
// rewrite any field of a pre-posted request — the mechanism behind the
// paper's remote work request manipulation (§4.1, Figure 5).
const (
	SlotSize = 128
	MaxSGE   = 4

	offOpcode    = 0
	offFlags     = 1
	offNumSGE    = 2
	offRKey      = 4
	offRAddr     = 8
	offImm       = 16 // immediate data / CAS compare value
	offSwap      = 24 // CAS swap value
	offWRID      = 32
	offWaitCQ    = 40
	offWaitCount = 44
	offSGEs      = 48
	sgeSize      = 16 // lkey u32, length u32, addr u64
	offProgA     = 112
	offProgB     = 120
)

// WQE flag bits.
const (
	flagSignaled = 1 << 0 // generate a CQE on completion
	flagHWOwned  = 1 << 1 // NIC may execute; clear = host-owned (inert)
	// flagGate marks a template slot as the host gate of a WQE program: a
	// CondRearm branch whose range covers it CLOSES it (clears HW ownership)
	// instead of re-arming it, parking the program until the next doorbell.
	flagGate = 1 << 2
)

// SGE is a scatter/gather entry addressing (lkey, region-relative offset,
// length).
type SGE struct {
	LKey   uint32
	Offset uint64
	Length uint32
}

// WQE is the decoded form of a work-queue entry. The encoded 128-byte image
// in the queue's registered ring is authoritative; this struct is only a
// convenience for building and for the NIC's execution step.
type WQE struct {
	Opcode    Opcode
	Signaled  bool
	HWOwned   bool
	Gated     bool // program gate slot: closed (not re-armed) by branch re-arm
	RKey      uint32
	RAddr     uint64
	Imm       uint64 // immediate data, or CAS compare value / guard want value
	Swap      uint64 // CAS swap value / guard mask / MaskFAdd field mask
	WRID      uint64
	WaitCQ    uint32 // for OpWait: target CQ id; for OpCondRearm: exit slot + 1
	WaitCount uint32 // for OpWait: completions to consume
	SGEs      []SGE
	// ProgA/ProgB parameterize NIC-resident WQE programs. OpGuard: ProgA is
	// the skip count on mismatch, ProgB the compare mask (0 = full word).
	// OpCondRearm: ProgA is the retry branch target (absolute slot), ProgB
	// the backoff WAIT slot + 1 (0 = none). OpMaskFAdd: ProgA is the guard
	// want value, ProgB the guard mask (0 = unconditional).
	ProgA uint64
	ProgB uint64
}

// Encode serializes the WQE into a 128-byte slot image.
func (w *WQE) Encode(dst []byte) {
	if len(dst) < SlotSize {
		panic(fmt.Sprintf("rdma: encode into %d bytes, need %d", len(dst), SlotSize))
	}
	if len(w.SGEs) > MaxSGE {
		panic(ErrTooManySGEs)
	}
	clear(dst[:SlotSize])
	dst[offOpcode] = byte(w.Opcode)
	var flags byte
	if w.Signaled {
		flags |= flagSignaled
	}
	if w.HWOwned {
		flags |= flagHWOwned
	}
	if w.Gated {
		flags |= flagGate
	}
	dst[offFlags] = flags
	dst[offNumSGE] = byte(len(w.SGEs))
	binary.LittleEndian.PutUint32(dst[offRKey:], w.RKey)
	binary.LittleEndian.PutUint64(dst[offRAddr:], w.RAddr)
	binary.LittleEndian.PutUint64(dst[offImm:], w.Imm)
	binary.LittleEndian.PutUint64(dst[offSwap:], w.Swap)
	binary.LittleEndian.PutUint64(dst[offWRID:], w.WRID)
	binary.LittleEndian.PutUint32(dst[offWaitCQ:], w.WaitCQ)
	binary.LittleEndian.PutUint32(dst[offWaitCount:], w.WaitCount)
	binary.LittleEndian.PutUint64(dst[offProgA:], w.ProgA)
	binary.LittleEndian.PutUint64(dst[offProgB:], w.ProgB)
	for i, sge := range w.SGEs {
		base := offSGEs + i*sgeSize
		binary.LittleEndian.PutUint32(dst[base:], sge.LKey)
		binary.LittleEndian.PutUint32(dst[base+4:], sge.Length)
		binary.LittleEndian.PutUint64(dst[base+8:], sge.Offset)
	}
}

// DecodeWQE parses a 128-byte slot image into a self-contained WQE.
func DecodeWQE(src []byte) WQE {
	if len(src) < SlotSize {
		panic(fmt.Sprintf("rdma: decode from %d bytes, need %d", len(src), SlotSize))
	}
	w := decodeHeader(src)
	var sges [MaxSGE]SGE
	if n := decodeSGEs(&sges, src); n > 0 {
		w.SGEs = append([]SGE(nil), sges[:n]...)
	}
	return w
}

// decodeHeader parses every field of a slot image except the SGE list.
func decodeHeader(src []byte) WQE {
	_ = src[SlotSize-1]
	return WQE{
		Opcode:    Opcode(src[offOpcode]),
		Signaled:  src[offFlags]&flagSignaled != 0,
		HWOwned:   src[offFlags]&flagHWOwned != 0,
		Gated:     src[offFlags]&flagGate != 0,
		RKey:      binary.LittleEndian.Uint32(src[offRKey:]),
		RAddr:     binary.LittleEndian.Uint64(src[offRAddr:]),
		Imm:       binary.LittleEndian.Uint64(src[offImm:]),
		Swap:      binary.LittleEndian.Uint64(src[offSwap:]),
		WRID:      binary.LittleEndian.Uint64(src[offWRID:]),
		WaitCQ:    binary.LittleEndian.Uint32(src[offWaitCQ:]),
		WaitCount: binary.LittleEndian.Uint32(src[offWaitCount:]),
		ProgA:     binary.LittleEndian.Uint64(src[offProgA:]),
		ProgB:     binary.LittleEndian.Uint64(src[offProgB:]),
	}
}

// decodeSGEs parses a slot image's SGE list into dst and returns its length
// (an over-long count in a damaged image is clamped to MaxSGE).
func decodeSGEs(dst *[MaxSGE]SGE, src []byte) int {
	n := int(src[offNumSGE])
	if n > MaxSGE {
		n = MaxSGE
	}
	for i := 0; i < n; i++ {
		base := offSGEs + i*sgeSize
		dst[i] = SGE{
			LKey:   binary.LittleEndian.Uint32(src[base:]),
			Length: binary.LittleEndian.Uint32(src[base+4:]),
			Offset: binary.LittleEndian.Uint64(src[base+8:]),
		}
	}
	return n
}

// EncodeImage returns the WQE as a fresh slot image — what a HyperLoop
// client precomputes as per-replica metadata.
func (w *WQE) EncodeImage() []byte {
	img := make([]byte, SlotSize)
	w.Encode(img)
	return img
}

// WQETable is a ring of WQE slots living in a registered memory region.
// The region uses RAM backing: queues are host memory even on NVM nodes.
//
// The encoded image in that memory is the only copy of a descriptor. Chains
// are self-modifying programs — a RECV scatter, a remote WRITE or the NIC's
// own re-arm may rewrite a slot at any instant before it executes — so the
// table never caches a decoded WQE across calls: post encodes into the
// image, peek decodes out of it, and the patch helpers edit it, all in
// place on the region's bytes.
type WQETable struct {
	mr    *MemoryRegion
	buf   []byte // the region's RAM, slots*SlotSize bytes
	slots int
	head  int // next slot the NIC will consider (consumer)
	tail  int // next free slot for posting (producer)

	// cur is the WQE peek hands out, its SGEs backed by curSGEs. It belongs
	// to the table and is overwritten by the next peek; a caller that needs
	// the descriptor longer copies it (see QP.startExec).
	cur     WQE
	curSGEs [MaxSGE]SGE
}

func newWQETable(mr *MemoryRegion, slots int) *WQETable {
	ram, ok := mr.backing.(*RAMBacking)
	if !ok || len(ram.buf) < slots*SlotSize {
		panic("rdma: WQE table needs a RAM-backed region of slots*SlotSize bytes")
	}
	return &WQETable{mr: mr, buf: ram.buf, slots: slots}
}

// MR returns the registered region holding the slots; its rkey is what a
// HyperLoop group shares so peers can manipulate descriptors.
func (t *WQETable) MR() *MemoryRegion { return t.mr }

// Slots returns the ring capacity.
func (t *WQETable) Slots() int { return t.slots }

// SlotOffset returns the byte offset of slot i within the table's region.
func (t *WQETable) SlotOffset(i int) int { return (i % t.slots) * SlotSize }

// slot returns the encoded image of slot abs.
func (t *WQETable) slot(abs int) []byte {
	off := t.SlotOffset(abs)
	return t.buf[off : off+SlotSize]
}

// Tail returns the producer index (the absolute index of the next post).
func (t *WQETable) Tail() int { return t.tail }

// Posted returns the number of WQEs posted and not yet consumed.
func (t *WQETable) Posted() int { return t.tail - t.head }

func (t *WQETable) full() bool { return t.tail-t.head >= t.slots }

// post encodes w into the tail slot and returns the absolute slot index.
func (t *WQETable) post(w *WQE) (int, error) {
	if t.full() {
		return 0, ErrQueueFull
	}
	idx := t.tail
	w.Encode(t.slot(idx))
	t.tail++
	return idx, nil
}

// peek decodes the head slot without consuming it. The returned WQE is the
// table's own (see cur): it reflects the slot image as of this call and is
// valid until the next peek on this table.
func (t *WQETable) peek() (*WQE, bool) {
	if t.head >= t.tail {
		return nil, false
	}
	img := t.slot(t.head)
	t.cur = decodeHeader(img)
	t.cur.SGEs = t.curSGEs[:decodeSGEs(&t.curSGEs, img)]
	return &t.cur, true
}

// advance consumes the head slot.
func (t *WQETable) advance() { t.head++ }

// headAbs returns the consumer index (the absolute index of the slot the
// NIC will consider next).
func (t *WQETable) headAbs() int { return t.head }

// rewindTo moves the consumer back to absolute slot index abs — the branch
// primitive of NIC-resident WQE programs. Rewinding forward of the head or
// behind slots already overwritten by the producer is a caller bug.
func (t *WQETable) rewindTo(abs int) {
	if abs < 0 || abs > t.head || t.tail-abs > t.slots {
		panic(fmt.Sprintf("rdma: rewind to %d with head %d tail %d slots %d", abs, t.head, t.tail, t.slots))
	}
	t.head = abs
}

// readSlot decodes the slot at absolute index abs, without its SGE list and
// without consuming it or disturbing peek's WQE.
func (t *WQETable) readSlot(abs int) WQE { return decodeHeader(t.slot(abs)) }

// slotFlags reads the flag byte of slot abs.
func (t *WQETable) slotFlags(abs int) byte { return t.slot(abs)[offFlags] }

// setSlotOwned sets or clears the hardware-ownership bit of slot abs. Like
// every table edit it bypasses the region's onWrite hook, matching what the
// NIC itself does when it re-arms a branch target: a purely NIC-internal
// state change must not recursively re-kick the queue mid-interpretation.
func (t *WQETable) setSlotOwned(abs int, owned bool) {
	img := t.slot(abs)
	if owned {
		img[offFlags] |= flagHWOwned
	} else {
		img[offFlags] &^= flagHWOwned
	}
}

// patchSlotU32 overwrites one 4-byte field of the encoded slot at abs.
func (t *WQETable) patchSlotU32(abs, fieldOff int, v uint32) {
	binary.LittleEndian.PutUint32(t.slot(abs)[fieldOff:], v)
}

// PatchSlotU64 overwrites one 8-byte field of the encoded slot at absolute
// index abs, at byte offset fieldOff within the 128-byte image. This is the
// host side of template reuse: between doorbells the host rewrites only the
// per-op fields (compare value, mask) of a parked program instead of
// rebuilding the chain.
func (t *WQETable) PatchSlotU64(abs int, fieldOff int, v uint64) {
	if fieldOff < 0 || fieldOff+8 > SlotSize {
		panic(fmt.Sprintf("rdma: patch field offset %d outside slot", fieldOff))
	}
	binary.LittleEndian.PutUint64(t.slot(abs)[fieldOff:], v)
}

// Encoded-slot field offsets exported for host-side template patching.
const (
	SlotOffImm  = offImm
	SlotOffSwap = offSwap
)

// SlotOffSGEAddr returns the byte offset of SGE i's address field within an
// encoded slot image, for patching a template slot's operand location.
func SlotOffSGEAddr(i int) int {
	if i < 0 || i >= MaxSGE {
		panic(fmt.Sprintf("rdma: sge index %d out of range", i))
	}
	return offSGEs + i*sgeSize + 8
}
