package core

import (
	"fmt"

	"hyperloop/internal/rdma"
)

// sendBatch issues the next n queued ops on channel c as one fused posting: each
// op's per-replica descriptor images (the "metadata" of §4.1, pre-calculated
// by the client) are staged, then every op's client-side work requests post
// back to back with a single doorbell (rdma.PostSendBatch). Everything after
// this — per-hop execution, forwarding, flushing, the tail ack — happens on
// NICs. A batch of one is the legacy issue path with identical timing when
// no DoorbellCost is configured.
func (c *channel) sendBatch(n int) {
	ws := c.cliWQEs[:0]
	c.sgeArena = c.sgeArena[:0]
	for i := 0; i < n; i++ {
		o := c.waiting.Pop()
		o.seq = c.issued
		c.issued++
		o.issued = c.g.eng.Now()
		c.pending.Push(o)
		c.armTimeout(o)
		ws = c.clientWQEs(ws, o)
	}
	c.cliWQEs = ws
	if c.g.failed != nil || len(ws) == 0 {
		return
	}
	if _, err := c.cliQP.PostSendBatch(ws); err != nil {
		c.g.fail(fmt.Errorf("%w: client post %s: %v", ErrGroupFailed, c.kind, err))
		return
	}
	if n > 1 {
		c.g.fusedBatches++
		c.g.fusedOps += uint64(n)
	}
}

// sges returns list as a slice of the channel's SGE arena. Posting encodes
// descriptors into queue memory at once, so the lists a posting round hands
// to the NIC only need to live until that round posts; sendBatch and
// replenish each reset the arena when they start.
func (c *channel) sges(list ...rdma.SGE) []rdma.SGE {
	start := len(c.sgeArena)
	c.sgeArena = append(c.sgeArena, list...)
	return c.sgeArena[start:len(c.sgeArena):len(c.sgeArena)]
}

// clientWQEs appends op o's client-side work requests to ws and stages its
// metadata message in the outgoing ring slot for seq o.seq.
func (c *channel) clientWQEs(ws []rdma.WQE, o *op) []rdma.WQE {
	k := int(o.seq)
	slotOff := (k % c.g.cfg.Depth) * c.msgHead
	head := c.g.replicas[0]
	var metaSGE []rdma.SGE
	if c.msgHead > 0 {
		c.buildMetadata(c.cliStagingRAM[slotOff:slotOff+c.msgHead], o, k)
		metaSGE = c.sges(rdma.SGE{LKey: c.cliStaging.LKey(), Offset: uint64(slotOff), Length: uint32(c.msgHead)})
	}
	switch c.kind {
	case chWrite:
		ws = append(ws, rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true, WRID: o.seq,
			RKey: head.Store.RKey(), RAddr: uint64(o.off),
			SGEs: c.sges(rdma.SGE{LKey: c.g.client.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}),
		})
		if o.durable {
			// gFLUSH interleave: drain the head replica's NIC cache before
			// the metadata SEND triggers its forward.
			ws = append(ws, rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: o.seq, RKey: head.Store.RKey()})
		}
		return append(ws, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq, SGEs: metaSGE})
	case chCAS, chMemcpy, chWriteIf:
		return append(ws, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq, SGEs: metaSGE})
	case chLoop:
		// gATOMIC_LOOP never builds per-op client WQEs: its template is
		// pre-posted and issueLoop patches + doorbells it instead.
		panic("core: gATOMIC_LOOP must issue through the template program")
	case chFlush:
		return append(ws,
			rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: o.seq, RKey: head.Store.RKey()},
			rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq})
	default:
		panic("core: unknown channel kind")
	}
}

// buildMetadata assembles, in place in the client's staging ring slot msg
// (msgHead bytes), the message entering hop 0: the concatenated descriptor
// images each hop's RECV will peel into its own queue slots, plus (for
// gCAS) the result map.
func (c *channel) buildMetadata(msg []byte, o *op, k int) {
	n := len(c.hops)
	// slot hands out the message's next SlotSize bytes for one image.
	pos := 0
	slot := func() []byte {
		pos += rdma.SlotSize
		return msg[pos-rdma.SlotSize : pos]
	}
	switch c.kind {
	case chWrite:
		for i := 0; i < n-1; i++ {
			c.writeImage(slot(), i, o, k)
			c.flushImage(slot(), i+1, o)
		}
	case chCAS:
		for i := 0; i < n; i++ {
			c.casImage(slot(), i, o, k)
		}
		pos += sentinelMap(msg[pos:], n)
	case chLoop:
		for i := 0; i < n; i++ {
			c.loopImage(slot(), i, o, k)
		}
		pos += sentinelMap(msg[pos:], n)
	case chWriteIf:
		for i := 0; i < n; i++ {
			c.guardImage(slot(), i, o, k)
			c.writeIfImage(slot(), i, o, k)
		}
		// Carried payload: the client host copies the bytes out of its
		// store into the chain message (bounded by PredPayloadCap).
		pay := msg[pos : pos+c.g.cfg.PredPayloadCap]
		clear(pay[o.size:])
		c.g.client.Store.Backing().ReadAt(o.off, pay[:o.size])
		pos += len(pay)
		pos += sentinelMap(msg[pos:], n)
	case chMemcpy:
		for i := 0; i < n; i++ {
			c.memcpyImage(slot(), i, o, k)
			c.flushImage(slot(), i, o)
		}
	case chFlush:
		// No images: the chain is fully pre-posted.
	}
	if pos != len(msg) {
		panic(fmt.Sprintf("core: %s metadata %dB, geometry says %dB", c.kind, pos, len(msg)))
	}
}

// writeImage is hop i's forwarding WRITE: gather the freshly-replicated
// bytes from its own store and write them to hop i+1's store at the same
// offset.
func (c *channel) writeImage(dst []byte, i int, o *op, k int) {
	self := c.g.replicas[i]
	next := c.g.replicas[i+1]
	(&rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: next.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: self.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}},
	}).Encode(dst)
}

// flushImage is a gFLUSH of replica j's store (a 0-byte READ), or a signaled
// NOP when the op is not durable. gWRITE interleaves it toward the next
// replica; gMEMCPY drains the hop's own store through its loopback QP.
func (c *channel) flushImage(dst []byte, j int, o *op) {
	if !o.durable {
		nopImage(dst)
		return
	}
	(&rdma.WQE{
		Opcode: rdma.OpRead, Signaled: true, HWOwned: true,
		RKey: c.g.replicas[j].Store.RKey(),
	}).Encode(dst)
}

// casImage is hop i's local compare-and-swap (or NOP when the execute map
// skips it). The original value scatters into the hop's staging result
// field so the chain accumulates the result map (§4.2, Figure 6).
func (c *channel) casImage(dst []byte, i int, o *op, k int) {
	if !o.exec.Has(i) {
		nopImage(dst)
		return
	}
	self := c.g.replicas[i]
	resOff := c.stagingOff(i, k) + c.resultFieldOff(i)
	(&rdma.WQE{
		Opcode: rdma.OpCompSwap, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: self.Store.RKey(), RAddr: uint64(o.off),
		Imm: o.casOld, Swap: o.casNew,
		SGEs: []rdma.SGE{{LKey: c.hops[i].staging.LKey(), Offset: uint64(resOff), Length: 8}},
	}).Encode(dst)
}

// resultFieldOff locates replica i's result slot within its staging area:
// after the images it forwards (and, for gWRITE_IF, the carried payload),
// 8 bytes per preceding replica.
func (c *channel) resultFieldOff(i int) int {
	n := len(c.hops)
	off := (n - 1 - i) * c.manipLen
	if c.kind == chWriteIf {
		off += c.g.cfg.PredPayloadCap
	}
	return off + 8*i
}

// sentinelMap fills the head of dst with an n-entry result map of
// CASNotExecuted and returns its size in bytes.
func sentinelMap(dst []byte, n int) int {
	for i := 0; i < n; i++ {
		putLE64(dst[8*i:], CASNotExecuted)
	}
	return 8 * n
}

// memcpyImage is hop i's NIC-local copy from srcOff to dstOff within its
// own store, issued over the loopback QP (§4.2, Figure 7).
func (c *channel) memcpyImage(dst []byte, i int, o *op, k int) {
	self := c.g.replicas[i]
	(&rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: self.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: self.Store.LKey(), Offset: uint64(o.src), Length: uint32(o.size)}},
	}).Encode(dst)
}

func nopImage(dst []byte) {
	(&rdma.WQE{Opcode: rdma.OpNop, Signaled: true, HWOwned: true}).Encode(dst)
}
