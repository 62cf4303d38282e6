package rdma

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// packetKind discriminates NIC-to-NIC messages.
type packetKind uint8

const (
	pkFree packetKind = iota // released to a free list; see NIC.releasePacket
	pkSend
	pkWrite
	pkWriteImm
	pkRead
	pkCAS
	pkMaskFAdd // masked fetch-and-add, optionally guarded
	pkAck      // completes SEND/WRITE/WRITE_IMM at the requester
	pkReadResp // carries READ data back
	pkCASResp  // carries the original value back (CAS and MaskFAdd)
)

// pktStage says which step of its journey a scheduled packet performs when
// the engine fires it.
type pktStage uint8

const (
	stProcess  pktStage = iota // Rx processing done: execute at the receiving NIC
	stLoopback                 // local DMA hop done: arrive at the own NIC
	stRespond                  // responder-side op cost paid: send the response
)

// packet is the simulation's wire unit. Payloads travel by reference; the
// fabric charges serialization time for the declared size.
//
// Lifetime: a packet is taken from a NIC's free list (newPacket), travels as
// a fabric payload and as its own engine event (Fire), and is released
// exactly once, by the NIC that consumes it — a request when the responder
// has executed it, a response when its completion is delivered (or when no
// request is waiting for it). A packet a cut link drops is simply never
// released. Released packets are poisoned (pkFree, nil data) so a use after
// release panics instead of reading recycled state.
type packet struct {
	kind    packetKind
	srcQPN  uint32
	dstQPN  uint32
	rkey    uint32
	raddr   uint64
	data    []byte // payload; aliases buf
	imm     uint64
	compare uint64
	swap    uint64
	gmask   uint64 // pkMaskFAdd guard mask (0 = unconditional)
	readLen int
	reqID   uint64
	status  Status

	stage pktStage
	nic   *NIC    // the NIC this packet is currently a scheduled event of
	qp    *QP     // stRespond: queue pair the response leaves on
	wire  int     // stRespond: bytes charged on the wire
	buf   []byte  // payload storage, kept across reuse
	word  [8]byte // staging for an atomic's original value at delivery
	next  *packet // free-list link
}

// Fire runs the packet's scheduled step.
func (p *packet) Fire() {
	if p.kind == pkFree {
		panic("rdma: released packet fired")
	}
	switch p.stage {
	case stProcess:
		p.nic.process(p)
	case stLoopback:
		p.nic.handlePacket(p)
	case stRespond:
		p.nic.transmit(p.qp, p, p.wire)
	}
}

// payload sizes the packet's data to n bytes of its reusable buffer.
func (p *packet) payload(n int) []byte {
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
	}
	p.data = p.buf[:n]
	return p.data
}

// newPacket takes a zeroed packet from the NIC's free list. The list is
// owned by the NIC, hence by its engine: under a PartitionedEngine it is
// partition-local and needs no lock.
func (n *NIC) newPacket(kind packetKind) *packet {
	p := n.freePkts
	if p == nil {
		return &packet{kind: kind}
	}
	n.freePkts = p.next
	*p = packet{kind: kind, buf: p.buf}
	return p
}

// releasePacket returns a consumed packet to the free list, poisoned.
func (n *NIC) releasePacket(p *packet) {
	if p.kind == pkFree {
		panic("rdma: packet released twice")
	}
	*p = packet{buf: p.buf, next: n.freePkts}
	n.freePkts = p
}

// TraceEvent is one NIC-level action, emitted to an attached Tracer. The
// stream narrates exactly what the hardware does per operation — which is
// the paper's §4 argument made visible.
//
// The detail text is not built when the event is emitted: the event carries
// the typed operands and Info renders them on demand, so a tracer that only
// counts or classifies events never pays for formatting.
type TraceEvent struct {
	At   sim.Time
	Node fabric.NodeID
	Kind string // "exec", "wait", "stall", "rx", "cqe", "prog"
	QPN  uint32
	Op   Opcode
	WRID uint64

	detail  traceDetail
	a, b, c uint64 // operands of detail, in the order Info prints them
}

// traceDetail selects the text Info renders.
type traceDetail uint8

const (
	detailNone      traceDetail = iota
	detailHostOwned             // stall: head slot is host-owned
	detailWaitFired             // wait: a = CQ id, b = count
	detailExec                  // exec: a = remote address, b = gather length
	detailGuardPass             // prog: a = observed word
	detailGuardSkip             // prog: a = slots skipped, b = observed word
	detailLoopExit              // prog: a = Status, b = observed word, c = exit slot
	detailLoopRetry             // prog: a = observed word, b = budget left, c = retry slot
	detailRx                    // rx: a = packetKind, b = payload bytes, c = remote address
)

// Info renders the event's detail text.
func (e TraceEvent) Info() string {
	switch e.detail {
	case detailHostOwned:
		return "host-owned"
	case detailWaitFired:
		return fmt.Sprintf("fired cq=%d count=%d", e.a, e.b)
	case detailExec:
		return fmt.Sprintf("raddr=%d len=%d", e.a, e.b)
	case detailGuardPass:
		return fmt.Sprintf("pass obs=%x", e.a)
	case detailGuardSkip:
		return fmt.Sprintf("skip %d obs=%x", e.a, e.b)
	case detailLoopExit:
		return fmt.Sprintf("%s obs=%x exit=%d", Status(e.a), e.b, e.c)
	case detailLoopRetry:
		return fmt.Sprintf("retry obs=%x budget=%d target=%d", e.a, e.b, e.c)
	case detailRx:
		return fmt.Sprintf("%s %dB raddr=%d", pktKindName(packetKind(e.a)), e.b, e.c)
	default:
		return ""
	}
}

// Tracer receives trace events. Implementations must be cheap; tracing is
// disabled when no tracer is attached, and an attached tracer that never
// calls Info pays for no formatting.
type Tracer func(TraceEvent)

// Counters aggregates NIC activity for the evaluation's CPU/offload
// accounting.
type Counters struct {
	WQEsExecuted uint64
	SendsRx      uint64
	WritesRx     uint64
	ReadsRx      uint64
	AtomicsRx    uint64
	CacheFlushes uint64
	RNRs         uint64
	AccessFaults uint64
	// Doorbells counts explicit ring operations (PostSend, PostSendBatch,
	// Doorbell) — the MMIO writes a batching client amortizes away.
	Doorbells uint64
	// ProgBranches counts OpGuard skips and OpCondRearm branches taken —
	// control transfers NIC-resident WQE programs perform without any host
	// involvement.
	ProgBranches uint64
	// TimerTicks counts timer-CQ completions delivered (NIC-side backoff).
	TimerTicks uint64
}

// NIC is one RDMA-capable network adapter: it owns memory registrations,
// queue pairs, and completion queues, executes work queues autonomously,
// and responds to inbound verbs — all without any cpusched involvement,
// which is precisely the property HyperLoop exploits.
type NIC struct {
	eng  *sim.Engine
	cfg  Config
	net  *fabric.Network
	node fabric.NodeID

	mrsByLKey map[uint32]*MemoryRegion
	mrsByRKey map[uint32]*MemoryRegion
	qps       map[uint32]*QP
	cqs       map[uint32]*CQ
	nextKey   uint32
	nextQPN   uint32
	nextCQID  uint32

	counters Counters
	tracer   Tracer

	// Fault-injection state: stallUntil freezes pipeline starts until the
	// given instant; slowdown (>1) scales per-unit processing costs.
	stallUntil sim.Time
	slowdown   float64

	freePkts *packet // see newPacket
}

// StallFor freezes the NIC's processing pipelines for d from now: work
// already in flight completes, but no queued WQE initiates and no inbound
// packet begins Rx processing until the stall window passes. Models a
// firmware hiccup or PFC pause storm; repeated calls extend the window
// monotonically.
func (n *NIC) StallFor(d sim.Duration) {
	until := n.eng.Now().Add(d)
	if until > n.stallUntil {
		n.stallUntil = until
	}
}

// SetSlowdown scales every subsequent processing cost (WQE initiation, Rx
// processing, DMA) by factor. Values <= 1 restore full speed. Models a
// degraded NIC (thermal throttling, cache thrash) for fault scenarios.
func (n *NIC) SetSlowdown(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	n.slowdown = factor
}

// scaledCost applies the configured slowdown to a processing cost.
func (n *NIC) scaledCost(c sim.Duration) sim.Duration {
	if n.slowdown > 1 {
		c = sim.Duration(float64(c) * n.slowdown)
	}
	return c
}

// stallStart clamps a pipeline start time to the end of any stall window.
func (n *NIC) stallStart(t sim.Time) sim.Time {
	if n.stallUntil > t {
		return n.stallUntil
	}
	return t
}

// SetTracer attaches fn to receive NIC-level trace events (nil detaches).
func (n *NIC) SetTracer(fn Tracer) { n.tracer = fn }

func (n *NIC) trace(kind string, qpn uint32, op Opcode, wrid uint64, detail traceDetail, a, b, c uint64) {
	if n.tracer != nil {
		n.tracer(TraceEvent{At: n.eng.Now(), Node: n.node, Kind: kind, QPN: qpn, Op: op, WRID: wrid,
			detail: detail, a: a, b: b, c: c})
	}
}

// NewNIC attaches a NIC to the network.
func NewNIC(eng *sim.Engine, net *fabric.Network, cfg Config) *NIC {
	cfg.fill()
	n := &NIC{
		eng:       eng,
		cfg:       cfg,
		net:       net,
		mrsByLKey: make(map[uint32]*MemoryRegion),
		mrsByRKey: make(map[uint32]*MemoryRegion),
		qps:       make(map[uint32]*QP),
		cqs:       make(map[uint32]*CQ),
	}
	n.node = net.Attach(n.handleMessage)
	return n
}

// Node returns the NIC's fabric address.
func (n *NIC) Node() fabric.NodeID { return n.node }

// Engine returns the simulation engine driving this NIC.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Counters returns a snapshot of activity counters.
func (n *NIC) Counters() Counters { return n.counters }

// RegisterMemory registers backing with the given access rights and returns
// the memory region.
func (n *NIC) RegisterMemory(backing Backing, access Access) *MemoryRegion {
	n.nextKey++
	mr := &MemoryRegion{
		lkey:    n.nextKey,
		rkey:    n.nextKey | 0x8000_0000,
		access:  access,
		backing: backing,
	}
	n.mrsByLKey[mr.lkey] = mr
	n.mrsByRKey[mr.rkey] = mr
	return mr
}

// RegisterRAM is shorthand for registering a fresh volatile buffer.
func (n *NIC) RegisterRAM(size int, access Access) *MemoryRegion {
	return n.RegisterMemory(NewRAMBacking(size), access)
}

// CreateCQ allocates a completion queue.
func (n *NIC) CreateCQ() *CQ {
	n.nextCQID++
	cq := &CQ{id: n.nextCQID, nic: n}
	n.cqs[cq.id] = cq
	return cq
}

// LookupCQ resolves a CQ id (used by WAIT execution).
func (n *NIC) LookupCQ(id uint32) *CQ { return n.cqs[id] }

// CreateTimerCQ allocates a completion queue that self-completes every
// period of virtual time while WAITed on, with ticks aligned to the
// absolute-time grid (tick k at k*period). WQE programs WAIT on it for
// NIC-side capped backoff; idle timers schedule nothing.
func (n *NIC) CreateTimerCQ(period sim.Duration) *CQ {
	if period <= 0 {
		panic("rdma: timer CQ needs a positive period")
	}
	cq := n.CreateCQ()
	cq.timerPeriod = period
	cq.autoDrain = true
	return cq
}

// CreateQP allocates a queue pair with sqSlots send and rqSlots receive
// slots. The queues live in registered memory; writes into the send table
// re-kick the queue so remotely-granted ownership takes effect.
func (n *NIC) CreateQP(sendCQ, recvCQ *CQ, sqSlots, rqSlots int) *QP {
	if sqSlots <= 0 {
		sqSlots = n.cfg.MaxInlineWQ
	}
	if rqSlots <= 0 {
		rqSlots = n.cfg.MaxInlineWQ
	}
	n.nextQPN++
	qp := &QP{
		qpn:          n.nextQPN,
		nic:          n,
		sendCQ:       sendCQ,
		recvCQ:       recvCQ,
		waitConsumed: make(map[uint32]uint64),
		pending:      make(map[uint64]pendingReq),
	}
	sqMR := n.RegisterRAM(sqSlots*SlotSize, AccessLocalWrite|AccessRemoteWrite)
	rqMR := n.RegisterRAM(rqSlots*SlotSize, AccessLocalWrite|AccessRemoteWrite)
	qp.sq = newWQETable(sqMR, sqSlots)
	qp.rq = newWQETable(rqMR, rqSlots)
	// Any write landing in the send table may have granted ownership of a
	// stalled descriptor: re-evaluate the queue.
	sqMR.onWrite = func(off, len int) { n.kick(qp) }
	n.qps[qp.qpn] = qp
	return qp
}

// Connect wires two QPs (reliable connected semantics). Both ends must
// belong to NICs on the same fabric.
func Connect(a, b *QP) {
	a.peerNode, a.peerQPN = b.nic.node, b.qpn
	b.peerNode, b.peerQPN = a.nic.node, a.qpn
	a.loopback = a.nic == b.nic && a.qpn == b.qpn
	b.loopback = a.loopback
	a.state, b.state = QPReady, QPReady
}

// ConnectLoopback wires a QP to itself, giving the NIC a channel for local
// DMA operations — the paper's "local RDMA" used by gMEMCPY and gCAS (§4.2).
func ConnectLoopback(q *QP) {
	q.peerNode, q.peerQPN = q.nic.node, q.qpn
	q.loopback = true
	q.state = QPReady
}

// kick prompts the NIC to (re)evaluate a QP's send queue.
func (n *NIC) kick(q *QP) {
	if q.sqBusy || q.state != QPReady {
		return
	}
	n.advanceSQ(q)
}

// maxInlineProgSteps bounds control-op work per advanceSQ invocation. A
// well-formed WQE program always reaches a data op, a WAIT, or its gate
// within a handful of steps; only a corrupt or adversarial program (e.g. an
// unconditional CondRearm cycle of pure NOPs) can spin, and real hardware
// would wedge on it too — we fail the QP instead of hanging the simulation.
const maxInlineProgSteps = 1 << 16

// advanceSQ drains the send queue head: consumes satisfied WAITs, stalls on
// unsatisfied ones or host-owned slots, interprets program control ops
// (guard skips, conditional re-arm branches) inline, and initiates
// executable WQEs.
//
// wqe is the table's own decode of the head slot, good until the next peek.
// Delivering a completion can re-enter the host and, through a new post,
// this function — so no branch reads wqe after deliverInOrder.
func (n *NIC) advanceSQ(q *QP) {
	steps := 0
	for {
		steps++
		if steps > maxInlineProgSteps {
			q.enterError()
			return
		}
		wqe, ok := q.sq.peek()
		if !ok || q.state != QPReady {
			return
		}
		if !wqe.HWOwned {
			n.trace("stall", q.qpn, wqe.Opcode, wqe.WRID, detailHostOwned, 0, 0, 0)
			return // host-owned: wait for doorbell or remote grant
		}
		switch wqe.Opcode {
		case OpWait:
			cq := n.cqs[wqe.WaitCQ]
			if cq == nil {
				q.enterError()
				return
			}
			need := q.waitConsumed[wqe.WaitCQ] + uint64(wqe.WaitCount)
			if cq.total < need {
				if !q.waiting {
					q.waiting = true
					cq.addWaiter(q)
				}
				return
			}
			n.trace("wait", q.qpn, OpWait, wqe.WRID, detailWaitFired, uint64(wqe.WaitCQ), uint64(wqe.WaitCount), 0)
			q.waitConsumed[wqe.WaitCQ] = need
			q.sq.advance()
			if wqe.Signaled {
				q.deliverInOrder(q.nextExecSeq(), q.plainCompletion(wqe.WRID, OpWait, StatusSuccess, 0, true))
			}
			continue
		case OpNop:
			q.sq.advance()
			q.deliverInOrder(q.nextExecSeq(), q.plainCompletion(wqe.WRID, OpNop, StatusSuccess, 0, wqe.Signaled))
			continue
		case OpGuard:
			if !n.execGuard(q, wqe) {
				return
			}
			continue
		case OpCondRearm:
			if !n.execCondRearm(q, wqe) {
				return
			}
			continue
		default:
			gatherLen := totalSGELen(wqe.SGEs)
			n.trace("exec", q.qpn, wqe.Opcode, wqe.WRID, detailExec, wqe.RAddr, uint64(gatherLen), 0)
			q.sq.advance()
			q.sqBusy = true
			n.counters.WQEsExecuted++
			cost := n.scaledCost(n.cfg.WQEProcess + n.cfg.dmaTime(gatherLen) + q.takeDoorbellCharge())
			// The descriptor is fetched now; the slot may be rewritten (and
			// the table's WQE reused) before the initiation event fires.
			q.cur = *wqe
			q.cur.SGEs = q.curSGEs[:copy(q.curSGEs[:], wqe.SGEs)]
			q.curSeq = q.nextExecSeq()
			n.eng.ScheduleEventAt(n.stallStart(n.eng.Now()).Add(cost), (*qpExec)(q))
			return
		}
	}
}

// qpExec is a QP viewed as the event that ends its current WQE's initiation
// cost; sqBusy guarantees at most one is scheduled.
type qpExec QP

func (x *qpExec) Fire() {
	q := (*QP)(x)
	q.sqBusy = false
	q.nic.initiate(q, &q.cur, q.curSeq)
	q.nic.advanceSQ(q)
}

// readLocalU64 fetches the 8-byte word sge addresses in local registered
// memory.
func (n *NIC) readLocalU64(sge SGE) (uint64, bool) {
	mr := n.mrsByLKey[sge.LKey]
	if mr == nil || !mr.contains(int(sge.Offset), 8) {
		return 0, false
	}
	return mr.readU64(int(sge.Offset)), true
}

// writeLocalU64 stores v at the location addressed by sge.
func (n *NIC) writeLocalU64(sge SGE, v uint64) bool {
	mr := n.mrsByLKey[sge.LKey]
	if mr == nil || !mr.contains(int(sge.Offset), 8) {
		return false
	}
	mr.writeU64(int(sge.Offset), v)
	return true
}

// progOperands copies a program op's header and first two SGEs out of the
// table's WQE: the interpreters below write local memory and peek further
// slots, either of which may reuse that WQE under them.
func progOperands(wqe *WQE) (w WQE, nsge int, sges [2]SGE) {
	w = *wqe
	nsge = copy(sges[:], wqe.SGEs)
	w.SGEs = nil
	return w, nsge, sges
}

// execGuard interprets an OpGuard slot: compare the local word at SGEs[0]
// (under the ProgB mask; 0 = full word) against Imm. On match execution
// falls through; on mismatch the next ProgA slots are skipped, with skipped
// signaled slots still delivering CQEs (StatusPredFail) so downstream WAIT
// counts stay constant either way. SGEs[1], when present, receives the
// observed word — how a predicated chain exports its evidence. Returns
// false when the QP entered error state.
func (n *NIC) execGuard(q *QP, head *WQE) bool {
	wqe, nsge, sges := progOperands(head)
	if nsge < 1 {
		q.enterError()
		return false
	}
	obs, ok := n.readLocalU64(sges[0])
	if !ok {
		q.enterError()
		return false
	}
	if nsge > 1 && !n.writeLocalU64(sges[1], obs) {
		q.enterError()
		return false
	}
	mask := wqe.ProgB
	if mask == 0 {
		mask = ^uint64(0)
	}
	matched := obs&mask == wqe.Imm&mask
	q.sq.advance()
	st := StatusSuccess
	if !matched {
		st = StatusPredFail
	}
	if wqe.Signaled {
		q.deliverInOrder(q.nextExecSeq(), q.plainCompletion(wqe.WRID, OpGuard, st, obs, true))
	}
	if matched {
		n.trace("prog", q.qpn, OpGuard, wqe.WRID, detailGuardPass, obs, 0, 0)
		return true
	}
	n.counters.ProgBranches++
	n.trace("prog", q.qpn, OpGuard, wqe.WRID, detailGuardSkip, wqe.ProgA, obs, 0)
	for s := uint64(0); s < wqe.ProgA; s++ {
		sk, ok := q.sq.peek()
		if !ok {
			break
		}
		q.sq.advance()
		if sk.Signaled {
			q.deliverInOrder(q.nextExecSeq(), q.plainCompletion(sk.WRID, sk.Opcode, StatusPredFail, 0, true))
		}
	}
	return true
}

// execCondRearm interprets an OpCondRearm slot — the loop primitive of
// NIC-resident programs. The local word at SGEs[0] is compared (under the
// Swap mask; 0 = full word) against Imm:
//
//   - match: the loop exits. A final CQE (StatusSuccess, Imm = observed)
//     is delivered and execution branches to the exit slot (WaitCQ-1; a
//     zero WaitCQ falls through instead).
//   - mismatch with budget (the word at SGEs[1]) > 0: the budget is
//     decremented, the backoff WAIT slot (ProgB-1, if any) has its count
//     doubled (0→1, capped at that slot's Swap) against *fresh* completions
//     of its CQ, every slot in [ProgA, here] is re-armed, and the head
//     rewinds to the retry target ProgA. No CQE: retries are silent.
//   - mismatch with budget 0: as the exit case but StatusRetryExhausted.
//
// Branching re-arms ordinary slots and CLOSES flagGate slots (ownership
// cleared), so a template program parks at its gate after the exit branch
// until the host doorbells the next operation — template reuse with zero
// re-posting. Returns false when the QP entered error state.
func (n *NIC) execCondRearm(q *QP, head *WQE) bool {
	wqe, nsge, sges := progOperands(head)
	if nsge < 1 {
		q.enterError()
		return false
	}
	obs, ok := n.readLocalU64(sges[0])
	if !ok {
		q.enterError()
		return false
	}
	mask := wqe.Swap
	if mask == 0 {
		mask = ^uint64(0)
	}
	matched := obs&mask == wqe.Imm&mask
	condIdx := q.sq.headAbs()

	// branch re-arms [target, condIdx] (gated slots close instead) and
	// rewinds the consumer.
	branch := func(target int) bool {
		if target < 0 || target > condIdx {
			q.enterError()
			return false
		}
		n.counters.ProgBranches++
		for i := target; i <= condIdx; i++ {
			if q.sq.slotFlags(i)&flagGate != 0 {
				q.sq.setSlotOwned(i, false)
			} else {
				q.sq.setSlotOwned(i, true)
			}
		}
		q.sq.rewindTo(target)
		return true
	}
	// resetBackoff rewrites the backoff WAIT slot's count and pins its CQ
	// watermark to "completions from now on", so the wait is against fresh
	// ticks rather than history.
	resetBackoff := func(count uint32) bool {
		if wqe.ProgB == 0 {
			return true
		}
		b := int(wqe.ProgB) - 1
		if b < 0 || b > condIdx {
			q.enterError()
			return false
		}
		bw := q.sq.readSlot(b)
		cq := n.cqs[bw.WaitCQ]
		if bw.Opcode != OpWait || cq == nil {
			q.enterError()
			return false
		}
		q.sq.patchSlotU32(b, offWaitCount, count)
		q.waitConsumed[bw.WaitCQ] = cq.total
		return true
	}
	final := func(st Status) {
		if wqe.Signaled {
			q.deliverInOrder(q.nextExecSeq(), q.plainCompletion(wqe.WRID, OpCondRearm, st, obs, true))
		}
	}
	exit := func(st Status) bool {
		// Restore the backoff WAIT to its encoded base count (Imm) so the
		// next use of the template starts from the configured floor.
		if wqe.ProgB != 0 {
			base := uint32(q.sq.readSlot(int(wqe.ProgB) - 1).Imm)
			if !resetBackoff(base) {
				return false
			}
		}
		if wqe.WaitCQ == 0 {
			q.sq.advance()
			final(st)
			return true
		}
		target := int(wqe.WaitCQ) - 1
		q.sq.advance() // consume before rewinding past ourselves
		// Park the program (close gates, rewind) BEFORE delivering the final
		// CQE: delivery can synchronously re-enter the host, whose next-op
		// doorbell must land on an already-closed gate — the reverse order
		// would clobber the fresh grant and strand the next operation.
		if !branch(target) {
			return false
		}
		n.trace("prog", q.qpn, OpCondRearm, wqe.WRID, detailLoopExit, uint64(st), obs, uint64(target))
		final(st)
		return true
	}

	if matched {
		return exit(StatusSuccess)
	}
	if nsge < 2 {
		q.enterError()
		return false
	}
	budget, ok := n.readLocalU64(sges[1])
	if !ok {
		q.enterError()
		return false
	}
	if budget == 0 {
		return exit(StatusRetryExhausted)
	}
	if !n.writeLocalU64(sges[1], budget-1) {
		q.enterError()
		return false
	}
	// Double the capped backoff, then loop back to the retry target.
	if wqe.ProgB != 0 {
		b := int(wqe.ProgB) - 1
		if b < 0 || b > condIdx {
			q.enterError()
			return false
		}
		bw := q.sq.readSlot(b)
		next := bw.WaitCount * 2
		if next == 0 {
			next = 1
		}
		if cap := uint32(bw.Swap); cap > 0 && next > cap {
			next = cap
		}
		if !resetBackoff(next) {
			return false
		}
	}
	target := int(wqe.ProgA)
	if !branch(target) {
		return false
	}
	n.trace("prog", q.qpn, OpCondRearm, wqe.WRID, detailLoopRetry, obs, budget-1, uint64(target))
	return true
}

// gather reads the WQE's scatter/gather entries from local MRs straight into
// pkt's payload buffer.
func (n *NIC) gather(pkt *packet, w *WQE) Status {
	var mrs [MaxSGE]*MemoryRegion
	total := 0
	for i, sge := range w.SGEs {
		mr := n.mrsByLKey[sge.LKey]
		if mr == nil || !mr.contains(int(sge.Offset), int(sge.Length)) {
			return StatusLocalProtErr
		}
		mrs[i] = mr
		total += int(sge.Length)
	}
	buf := pkt.payload(total)
	for i, sge := range w.SGEs {
		mrs[i].read(int(sge.Offset), buf[:sge.Length])
		buf = buf[sge.Length:]
	}
	return StatusSuccess
}

// scatter copies data, in order, into the local regions sges address. It
// returns how many bytes found no room, and StatusLocalProtErr if an entry
// it needed was not a valid local target.
func (n *NIC) scatter(sges []SGE, data []byte) (left int, st Status) {
	for _, sge := range sges {
		if len(data) == 0 {
			break
		}
		mr := n.mrsByLKey[sge.LKey]
		if mr == nil || !mr.contains(int(sge.Offset), min(int(sge.Length), len(data))) {
			return len(data), StatusLocalProtErr
		}
		chunk := data
		if len(chunk) > int(sge.Length) {
			chunk = chunk[:sge.Length]
		}
		mr.write(int(sge.Offset), chunk)
		data = data[len(chunk):]
	}
	return len(data), StatusSuccess
}

// requestKind maps a send-queue opcode to the request packet it initiates;
// pkFree for opcodes that put nothing on the wire.
func requestKind(op Opcode) packetKind {
	switch op {
	case OpSend:
		return pkSend
	case OpWrite:
		return pkWrite
	case OpWriteImm:
		return pkWriteImm
	case OpRead:
		return pkRead
	case OpCompSwap:
		return pkCAS
	case OpMaskFAdd:
		return pkMaskFAdd
	default:
		return pkFree
	}
}

// initiate launches one non-WAIT WQE onto the wire (or loopback path). seq
// is the WQE's execution order for in-order completion delivery. A WQE that
// cannot be launched completes in error locally and fails the queue.
func (n *NIC) initiate(q *QP, w *WQE, seq uint64) {
	q.nextReqID++
	kind, st := requestKind(w.Opcode), StatusLocalProtErr
	if kind != pkFree {
		pkt := n.newPacket(kind)
		pkt.srcQPN, pkt.dstQPN, pkt.reqID = q.qpn, q.peerQPN, q.nextReqID
		if st = n.fillRequest(pkt, w); st == StatusSuccess {
			p := pendingReq{seq: seq, wrid: w.WRID, opcode: w.Opcode, signaled: w.Signaled}
			p.scatter.set(w.SGEs)
			q.pending[pkt.reqID] = p
			q.inFlight++
			n.transmit(q, pkt, len(pkt.data))
			return
		}
		n.releasePacket(pkt)
	}
	q.deliverInOrder(seq, q.plainCompletion(w.WRID, w.Opcode, st, 0, w.Signaled))
	q.enterError()
}

// fillRequest loads w's operands (and, for SEND/WRITE, its gathered
// payload) into the request packet.
func (n *NIC) fillRequest(pkt *packet, w *WQE) Status {
	switch pkt.kind {
	case pkSend:
		pkt.imm = w.Imm
		return n.gather(pkt, w)
	case pkWrite, pkWriteImm:
		pkt.rkey, pkt.raddr, pkt.imm = w.RKey, w.RAddr, w.Imm
		return n.gather(pkt, w)
	case pkRead:
		pkt.rkey, pkt.raddr, pkt.readLen = w.RKey, w.RAddr, totalSGELen(w.SGEs)
	case pkCAS:
		pkt.rkey, pkt.raddr, pkt.compare, pkt.swap = w.RKey, w.RAddr, w.Imm, w.Swap
	case pkMaskFAdd:
		pkt.rkey, pkt.raddr = w.RKey, w.RAddr
		pkt.imm, pkt.swap, pkt.compare, pkt.gmask = w.Imm, w.Swap, w.ProgA, w.ProgB
	}
	return StatusSuccess
}

// transmit sends pkt toward q's peer, bypassing the fabric for loopback.
func (n *NIC) transmit(q *QP, pkt *packet, size int) {
	if q.loopback {
		// Local DMA path: charge receive-side processing without wire time.
		pkt.nic, pkt.stage = n, stLoopback
		n.eng.ScheduleEvent(n.cfg.RxProcess, pkt)
		return
	}
	n.net.Send(fabric.Message{From: n.node, To: q.peerNode, Size: size, Payload: pkt})
}

// handleMessage is the fabric delivery hook.
func (n *NIC) handleMessage(m fabric.Message) {
	pkt, ok := m.Payload.(*packet)
	if !ok {
		panic(fmt.Sprintf("rdma: non-packet payload %T", m.Payload))
	}
	n.handlePacket(pkt)
}

// handlePacket dispatches an inbound packet after charging Rx processing
// plus payload DMA, serialized per destination QP so requests execute in
// arrival order.
func (n *NIC) handlePacket(pkt *packet) {
	cost := n.scaledCost(n.cfg.RxProcess + n.cfg.dmaTime(len(pkt.data)))
	start := n.stallStart(n.eng.Now())
	q := n.qps[pkt.dstQPN]
	if q != nil && q.rxFree > start {
		start = q.rxFree
	}
	end := start.Add(cost)
	if q != nil {
		q.rxFree = end
	}
	pkt.nic, pkt.stage = n, stProcess
	n.eng.ScheduleEventAt(end, pkt)
}

// process executes an inbound packet. It is where a packet's journey ends:
// a request is released once served, a response is handed to
// completeRequest, which releases it when its completion is delivered.
func (n *NIC) process(pkt *packet) {
	q := n.qps[pkt.dstQPN]
	if q == nil {
		n.releasePacket(pkt) // stale packet to a destroyed QP
		return
	}
	n.trace("rx", pkt.dstQPN, 0, 0, detailRx, uint64(pkt.kind), uint64(len(pkt.data)), pkt.raddr)
	switch pkt.kind {
	case pkAck, pkReadResp, pkCASResp:
		n.completeRequest(q, pkt)
		return
	}
	n.serve(q, pkt)
	n.releasePacket(pkt)
}

// response builds the reply to request req.
func (n *NIC) response(kind packetKind, req *packet, st Status) *packet {
	resp := n.newPacket(kind)
	resp.dstQPN, resp.reqID, resp.status = req.srcQPN, req.reqID, st
	return resp
}

// respondAfter sends resp back on q once the responder-side cost d of the
// operation is paid.
func (n *NIC) respondAfter(d sim.Duration, q *QP, resp *packet, size int) {
	resp.nic, resp.stage, resp.qp, resp.wire = n, stRespond, q, size
	n.eng.ScheduleEvent(d, resp)
}

// atomicTarget validates an inbound atomic's target word, returning the
// region or the failure status.
func (n *NIC) atomicTarget(pkt *packet) (*MemoryRegion, Status) {
	mr := n.mrsByRKey[pkt.rkey]
	switch {
	case mr == nil:
		return nil, StatusRemoteInvalidRkey
	case mr.access&AccessRemoteAtomic == 0:
		return nil, StatusRemoteAccessErr
	case !mr.contains(int(pkt.raddr), 8):
		return nil, StatusRemoteAccessErr
	}
	return mr, StatusSuccess
}

// serve executes an inbound request on the responder side.
func (n *NIC) serve(q *QP, pkt *packet) {
	switch pkt.kind {
	case pkSend:
		n.counters.SendsRx++
		n.recvConsume(q, pkt, pkt.data, false)
	case pkWrite:
		n.counters.WritesRx++
		st := n.remoteWrite(pkt)
		n.transmit(q, n.response(pkAck, pkt, st), 0)
		if st != StatusSuccess {
			q.enterError()
		}
	case pkWriteImm:
		n.counters.WritesRx++
		st := n.remoteWrite(pkt)
		if st != StatusSuccess {
			n.transmit(q, n.response(pkAck, pkt, st), 0)
			q.enterError()
			return
		}
		// WRITE_IMM additionally consumes a RECV to deliver the immediate.
		n.recvConsume(q, pkt, nil, true)
	case pkRead:
		n.counters.ReadsRx++
		mr := n.mrsByRKey[pkt.rkey]
		resp := n.response(pkReadResp, pkt, StatusSuccess)
		switch {
		case mr == nil:
			resp.status = StatusRemoteInvalidRkey
		case mr.access&AccessRemoteRead == 0:
			resp.status = StatusRemoteAccessErr
		case !mr.contains(int(pkt.raddr), pkt.readLen):
			resp.status = StatusRemoteAccessErr
		default:
			// A READ drains the NIC's volatile cache for the region before
			// data is returned — the property gFLUSH (a 0-byte READ) is
			// built on (§4.2, "Group RDMA flush").
			n.counters.CacheFlushes++
			if pkt.readLen == 0 {
				mr.backing.Flush(0, mr.backing.Len())
			} else {
				mr.backing.Flush(int(pkt.raddr), pkt.readLen)
			}
			mr.read(int(pkt.raddr), resp.payload(pkt.readLen))
		}
		if resp.status != StatusSuccess {
			n.counters.AccessFaults++
		}
		// Flush cost is charged before the response leaves.
		n.respondAfter(n.cfg.CacheFlush, q, resp, len(resp.data))
	case pkCAS:
		n.counters.AtomicsRx++
		mr, st := n.atomicTarget(pkt)
		resp := n.response(pkCASResp, pkt, st)
		if st == StatusSuccess {
			orig := mr.readU64(int(pkt.raddr))
			if orig == pkt.compare {
				mr.writeU64(int(pkt.raddr), pkt.swap)
			}
			resp.imm = orig
		} else {
			n.counters.AccessFaults++
		}
		n.respondAfter(n.cfg.AtomicOp, q, resp, 8)
	case pkMaskFAdd:
		// Masked fetch-and-add in the style of ConnectX extended atomics:
		// the addend applies only within the field mask (swap; 0 = whole
		// word), and only when the guarded bits (old & gmask) equal the
		// expected value — a reader-register that cannot race a writer.
		// The original word always returns, applied or not.
		n.counters.AtomicsRx++
		mr, st := n.atomicTarget(pkt)
		resp := n.response(pkCASResp, pkt, st)
		if st == StatusSuccess {
			orig := mr.readU64(int(pkt.raddr))
			if pkt.gmask == 0 || orig&pkt.gmask == pkt.compare {
				field := pkt.swap
				if field == 0 {
					field = ^uint64(0)
				}
				mr.writeU64(int(pkt.raddr), (orig+pkt.imm)&field|orig&^field)
			}
			resp.imm = orig
		} else {
			n.counters.AccessFaults++
		}
		n.respondAfter(n.cfg.AtomicOp, q, resp, 8)
	}
}

// remoteWrite applies an inbound WRITE and returns its status.
func (n *NIC) remoteWrite(pkt *packet) Status {
	mr := n.mrsByRKey[pkt.rkey]
	switch {
	case mr == nil:
		n.counters.AccessFaults++
		return StatusRemoteInvalidRkey
	case mr.access&AccessRemoteWrite == 0:
		n.counters.AccessFaults++
		return StatusRemoteAccessErr
	case !mr.contains(int(pkt.raddr), len(pkt.data)):
		n.counters.AccessFaults++
		return StatusRemoteAccessErr
	}
	mr.write(int(pkt.raddr), pkt.data)
	return StatusSuccess
}

// recvConsume consumes a RECV WQE — from the QP's private queue or its
// attached shared receive queue — for an inbound SEND (scattering data) or
// WRITE_IMM (immediate only).
func (n *NIC) recvConsume(q *QP, pkt *packet, data []byte, immOnly bool) {
	rq := q.rq
	if q.srq != nil {
		rq = q.srq.rq
	}
	rwqe, ok := rq.peek()
	if !ok {
		n.counters.RNRs++
		n.transmit(q, n.response(pkAck, pkt, StatusRNR), 0)
		q.enterError()
		return
	}
	rq.advance()
	status := StatusSuccess
	if !immOnly {
		var left int
		if left, status = n.scatter(rwqe.SGEs, data); status == StatusSuccess && left > 0 {
			status = StatusLengthErr
		}
	}
	byteLen := len(data)
	if immOnly {
		byteLen = len(pkt.data)
	}
	q.recvCQ.push(CQE{
		WRID:    rwqe.WRID,
		Opcode:  OpRecv,
		Status:  status,
		QPN:     q.qpn,
		Imm:     pkt.imm,
		ByteLen: byteLen,
	})
	n.transmit(q, n.response(pkAck, pkt, status), 0)
	if status != StatusSuccess {
		q.enterError()
	}
}

// completeRequest matches a response to its pending request and queues the
// requester-side completion, which owns pkt from here on.
func (n *NIC) completeRequest(q *QP, pkt *packet) {
	p, ok := q.pending[pkt.reqID]
	if !ok {
		n.releasePacket(pkt) // duplicate or post-error response
		return
	}
	delete(q.pending, pkt.reqID)
	q.inFlight--
	q.deliverInOrder(p.seq, completion{
		cqe:      CQE{WRID: p.wrid, Opcode: p.opcode, QPN: q.qpn},
		signaled: p.signaled,
		resp:     pkt,
		scatter:  p.scatter,
	})
}

func totalSGELen(sges []SGE) int {
	n := 0
	for _, s := range sges {
		n += int(s.Length)
	}
	return n
}

func pktKindName(k packetKind) string {
	switch k {
	case pkSend:
		return "SEND"
	case pkWrite:
		return "WRITE"
	case pkWriteImm:
		return "WRITE_IMM"
	case pkRead:
		return "READ"
	case pkCAS:
		return "CAS"
	case pkMaskFAdd:
		return "MASK_FADD"
	case pkAck:
		return "ACK"
	case pkReadResp:
		return "READ_RESP"
	case pkCASResp:
		return "CAS_RESP"
	default:
		return "?"
	}
}

func le64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putLE64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// DebugQPState reports internal queue state for diagnostics: head opcode,
// ownership, wait bookkeeping. Test scaffolding only.
func (q *QP) DebugQPState() string {
	if q.sq.Posted() == 0 {
		return fmt.Sprintf("sq empty, waiting=%v", q.waiting)
	}
	wqe := q.sq.readSlot(q.sq.headAbs())
	cq := q.nic.cqs[wqe.WaitCQ]
	total := uint64(0)
	if cq != nil {
		total = cq.total
	}
	return fmt.Sprintf("head=%v owned=%v waitCQ=%d count=%d consumed=%d cqTotal=%d waiting=%v sqBusy=%v",
		wqe.Opcode, wqe.HWOwned, wqe.WaitCQ, wqe.WaitCount, q.waitConsumed[wqe.WaitCQ], total, q.waiting, q.sqBusy)
}

// DestroyQP tears a queue pair down: pending work flushes with errors,
// future posts fail, and late inbound packets are dropped. The chain
// manager uses this when decommissioning a failed member's connections.
func (n *NIC) DestroyQP(q *QP) {
	if q == nil || n.qps[q.qpn] != q {
		return
	}
	q.enterError()
	delete(n.qps, q.qpn)
}
