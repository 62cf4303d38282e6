// Package naive implements the paper's comparison baseline ("Naïve-RDMA",
// §6): the same four group primitives and the same chain topology as
// HyperLoop, but with replica CPUs on the critical path. Each hop's host
// must receive the message, parse it, execute the memory operation, and
// post the forward — exactly the steps §4.1 describes for a traditional
// RDMA implementation.
//
// Two consumption modes are modeled, matching §6.2's RocksDB variants:
//
//   - event-driven (Mode == Event): a CQ event wakes a handler that must be
//     scheduled on the (multi-tenant, busy) host CPU before anything moves;
//   - busy-polling (Mode == Polling): a poller thread spins for
//     completions. If a core can be dedicated (PinCore) the poll latency is
//     sub-µs, but the core burns at 100%; co-located pollers (the
//     multi-tenant case) degrade into scheduled tasks.
package naive

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/fifo"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Mode selects how replica hosts consume completions.
type Mode int

// Baseline completion-consumption modes.
const (
	Event   Mode = iota // completion event wakes a scheduled handler
	Polling             // a poller loop checks CQs
)

// Errors surfaced by the group API.
var (
	ErrGroupFailed = errors.New("naive: group failed")
	ErrBadArgs     = errors.New("naive: bad primitive arguments")
)

// Result is core.Result, so *Group satisfies core.Backend with no wrapper.
type Result = core.Result

var _ core.Backend = (*Group)(nil)

// Config tunes the baseline.
type Config struct {
	Mode Mode
	// PinCore dedicates one core per replica to the poller (Polling mode
	// only). In multi-tenant co-location this is usually infeasible —
	// which is the paper's point.
	PinCore bool
	// HandlerCPU is the host CPU demand per message hop: receive, parse,
	// execute the memory op, and post the forward (default 2µs).
	HandlerCPU sim.Duration
	// MaxInflight is the client window: un-acked ops beyond it queue
	// client-side (default 64). It may not exceed the 256-slot command,
	// ack and RECV rings (ringDepth); NewWithNodes panics on a wider window.
	MaxInflight int
}

func (c *Config) fill() {
	if c.HandlerCPU <= 0 {
		c.HandlerCPU = 2 * sim.Microsecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
}

// command is the replication message the baseline forwards hop to hop. It
// is encoded into registered ring slots so message sizes are honest.
type command struct {
	op      uint8 // 1 gwrite, 2 gcas, 3 gmemcpy, 4 gflush
	seq     uint64
	off     uint64
	src     uint64
	size    uint32
	durable bool
	casOld  uint64
	casNew  uint64
	exec    uint64
	results []uint64 // accumulated CAS results; nil encodes as zeros
}

const cmdOp = 1 + 8 + 8 + 8 + 4 + 1 + 8 + 8 + 8

// encodeInto writes m over buf[:cmdOp+8*n] in place. Ring slots hold the
// previous lap's message (DESIGN §18), so every byte is written: the
// durable flag either way, and a zero for each result word m has none for.
func (m *command) encodeInto(buf []byte, n int) {
	buf = buf[:cmdOp+8*n]
	buf[0] = m.op
	binary.LittleEndian.PutUint64(buf[1:], m.seq)
	binary.LittleEndian.PutUint64(buf[9:], m.off)
	binary.LittleEndian.PutUint64(buf[17:], m.src)
	binary.LittleEndian.PutUint32(buf[25:], m.size)
	buf[29] = 0
	if m.durable {
		buf[29] = 1
	}
	binary.LittleEndian.PutUint64(buf[30:], m.casOld)
	binary.LittleEndian.PutUint64(buf[38:], m.casNew)
	binary.LittleEndian.PutUint64(buf[46:], m.exec)
	putWords(buf[cmdOp:], m.results, n)
}

// decodeInto fills m from buf, reusing m.results for the n result words.
func (m *command) decodeInto(buf []byte, n int) {
	m.op = buf[0]
	m.seq = binary.LittleEndian.Uint64(buf[1:])
	m.off = binary.LittleEndian.Uint64(buf[9:])
	m.src = binary.LittleEndian.Uint64(buf[17:])
	m.size = binary.LittleEndian.Uint32(buf[25:])
	m.durable = buf[29] == 1
	m.casOld = binary.LittleEndian.Uint64(buf[30:])
	m.casNew = binary.LittleEndian.Uint64(buf[38:])
	m.exec = binary.LittleEndian.Uint64(buf[46:])
	m.results = getWords(m.results[:0], buf[cmdOp:], n)
}

// putWords writes n little-endian words to dst: words, then zeros.
func putWords(dst []byte, words []uint64, n int) {
	for i := 0; i < n; i++ {
		var v uint64
		if i < len(words) {
			v = words[i]
		}
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
}

// getWords appends the n little-endian words of src to dst.
func getWords(dst []uint64, src []byte, n int) []uint64 {
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

// replica is one hop's software state: its QPs plus the host-side handler.
type replica struct {
	g      *Group
	index  int
	node   *cluster.Node
	up     *rdma.QP // from previous node
	down   *rdma.QP // toward next node (client for the tail)
	cmdBuf *rdma.MemoryRegion
	cmdRAM []byte // cmdBuf's bytes: commands are decoded and encoded in place
	poller *cpusched.Task
	inbox  fifo.Queue[uint64] // WRIDs of completions awaiting the poller
	cmd    command            // handle's decode scratch

	freeHandlers []*handlerRec // recycled handler records
}

// handlerRec carries one received command's WRID to the host CPU. run is
// bound once, when the record is created, and handed to Host.Submit (Event)
// or the engine (Polling) on every reuse; the record goes back on its
// replica's free list after handle returns.
type handlerRec struct {
	r        *replica
	wrid     uint64
	run      func()
	released bool
}

// newHandler returns a handler record for the completion wrid.
func (r *replica) newHandler(wrid uint64) *handlerRec {
	n := len(r.freeHandlers)
	if n == 0 {
		h := &handlerRec{r: r, wrid: wrid}
		h.run = h.fire
		return h
	}
	h := r.freeHandlers[n-1]
	r.freeHandlers = r.freeHandlers[:n-1]
	h.wrid, h.released = wrid, false
	return h
}

// fire runs the hop's handler, then recycles the record.
func (h *handlerRec) fire() {
	if h.released {
		panic("naive: released handler record dispatched")
	}
	h.r.handle(h.wrid)
	h.released = true
	h.r.freeHandlers = append(h.r.freeHandlers, h)
}

// Group is a Naïve-RDMA replication group over the same cluster layout as
// core.Group: node 0 is the client.
type Group struct {
	eng          *sim.Engine
	cfg          Config
	client       *cluster.Node
	replicaNodes []*cluster.Node
	replicas     []*replica
	cmdLen       int // encoded command size: cmdOp + 8 result words per replica

	cliQP   *rdma.QP
	ackQP   *rdma.QP
	cliCmd  *rdma.MemoryRegion
	cliRAM  []byte // cliCmd's bytes
	ackMR   *rdma.MemoryRegion
	ackRAM  []byte // ackMR's bytes
	pending fifo.Queue[*op]
	waiting fifo.Queue[*op]
	freeOps []*op // finished op records, reused by newOp
	issued  uint64
	failed  error

	handlerOps uint64 // replica handler activations (CPU critical path)
}

// op is a queued primitive invocation. Records come from the group's free
// list (newOp) and go back once done has returned, so an op costs no
// allocation in steady state; a released record is poisoned, and acking or
// releasing it again panics.
type op struct {
	seq      uint64
	cmd      command
	issued   sim.Time
	done     func(Result)
	res      []uint64 // n words: outgoing gCAS results, then Result.CASOld
	released bool
}

// newOp returns an op record for cmd completing through done.
func (g *Group) newOp(cmd command, done func(Result)) *op {
	n := len(g.freeOps)
	if n == 0 {
		return &op{cmd: cmd, done: done, res: make([]uint64, len(g.replicaNodes))}
	}
	o := g.freeOps[n-1]
	g.freeOps = g.freeOps[:n-1]
	*o = op{cmd: cmd, done: done, res: o.res}
	return o
}

// finish completes o through its callback and recycles the record.
func (g *Group) finish(o *op, res Result) {
	if o.done != nil {
		o.done(res)
	}
	g.releaseOp(o)
}

// releaseOp poisons o and returns it to the free list.
func (g *Group) releaseOp(o *op) {
	if o.released {
		panic("naive: op released twice")
	}
	o.released = true
	o.done = nil
	g.freeOps = append(g.freeOps, o)
}

const ringDepth = 256

// New wires the baseline over a cluster (node 0 = client).
func New(cl *cluster.Cluster, cfg Config) *Group {
	return NewWithNodes(cl.Eng, cl.Client(), cl.Replicas(), cfg)
}

// NewWithNodes wires the baseline over an explicit topology.
func NewWithNodes(eng *sim.Engine, client *cluster.Node, replicaNodes []*cluster.Node, cfg Config) *Group {
	if client == nil || len(replicaNodes) < 1 {
		panic("naive: need a client and at least one replica")
	}
	cfg.fill()
	if cfg.MaxInflight > ringDepth {
		panic(fmt.Sprintf("naive: MaxInflight %d exceeds the %d-slot command ring", cfg.MaxInflight, ringDepth))
	}
	n := len(replicaNodes)
	g := &Group{eng: eng, cfg: cfg, client: client, replicaNodes: replicaNodes, cmdLen: cmdOp + 8*n}

	nodes := append([]*cluster.Node{client}, replicaNodes...)
	type pair struct{ src, dst *rdma.QP }
	pairs := make([]pair, n+1)
	for i := 0; i <= n; i++ {
		a, b := cluster.ConnectPair(nodes[i], nodes[(i+1)%(n+1)], 4*ringDepth, ringDepth)
		pairs[i] = pair{a, b}
	}
	g.cliQP = pairs[0].src
	g.ackQP = pairs[n].dst
	g.cliCmd = g.client.NIC.RegisterRAM(ringDepth*g.cmdLen, rdma.AccessLocalWrite)
	g.cliRAM = ramBytes(g.cliCmd)
	g.ackMR = g.client.NIC.RegisterRAM(ringDepth*8*n, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	g.ackRAM = ramBytes(g.ackMR)

	for i, node := range replicaNodes {
		r := &replica{
			g:     g,
			index: i,
			node:  node,
			up:    pairs[i].dst,
			down:  pairs[i+1].src,
			cmd:   command{results: make([]uint64, 0, n)},
		}
		r.cmdBuf = node.NIC.RegisterRAM(ringDepth*g.cmdLen, rdma.AccessLocalWrite)
		r.cmdRAM = ramBytes(r.cmdBuf)
		r.up.SendCQ().SetAutoDrain(true)
		r.down.SendCQ().SetAutoDrain(true)
		r.down.SendCQ().SetCallback(func(e rdma.CQE) {
			if e.Status != rdma.StatusSuccess {
				g.fail(fmt.Errorf("%w: replica %d forward %s", ErrGroupFailed, i, e.Status))
			}
		})
		r.up.RecvCQ().SetAutoDrain(true)
		r.up.RecvCQ().SetCallback(r.onCompletion)
		for k := 0; k < ringDepth; k++ {
			r.postRecv(k)
		}
		g.replicas = append(g.replicas, r)
	}

	// Client side: ack RECVs and callbacks.
	g.cliQP.SendCQ().SetAutoDrain(true)
	g.cliQP.SendCQ().SetCallback(func(e rdma.CQE) {
		if e.Status != rdma.StatusSuccess {
			g.fail(fmt.Errorf("%w: client completion %s", ErrGroupFailed, e.Status))
		}
	})
	g.ackQP.RecvCQ().SetAutoDrain(true)
	g.ackQP.RecvCQ().SetCallback(g.onAck)
	for k := 0; k < ringDepth; k++ {
		if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
			panic(err)
		}
	}

	if cfg.Mode == Polling {
		g.startPollers()
	}
	return g
}

// ramBytes is the host's view of a RAM-registered region.
func ramBytes(mr *rdma.MemoryRegion) []byte {
	return mr.Backing().(*rdma.RAMBacking).Bytes()
}

// HandlerActivations counts replica-CPU handler runs — the critical-path
// CPU work HyperLoop eliminates.
func (g *Group) HandlerActivations() uint64 { return g.handlerOps }

// Failed returns the failure reason, or nil.
func (g *Group) Failed() error { return g.failed }

// Close stops pollers.
func (g *Group) Close() {
	for _, r := range g.replicas {
		if r.poller != nil {
			r.poller.Stop()
		}
	}
}

// fail errors out every in-flight and queued op, each exactly once.
func (g *Group) fail(reason error) {
	if g.failed != nil {
		return
	}
	g.failed = reason
	for _, q := range []*fifo.Queue[*op]{&g.pending, &g.waiting} {
		for q.Len() > 0 {
			o := q.Pop()
			g.finish(o, Result{Seq: o.seq, Err: reason})
		}
	}
}

func (r *replica) postRecv(k int) {
	slot := (k % ringDepth) * r.g.cmdLen
	if _, err := r.up.PostRecv(rdma.WQE{
		WRID: uint64(k),
		SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slot), Length: uint32(r.g.cmdLen)}},
	}); err != nil {
		r.g.fail(fmt.Errorf("%w: repost recv: %v", ErrGroupFailed, err))
	}
}

// onCompletion is the NIC-level completion hook. In Event mode it schedules
// the handler on the host CPU (paying the multi-tenant scheduling tax). In
// Polling mode it parks the completion for the poller.
func (r *replica) onCompletion(e rdma.CQE) {
	if e.Status != rdma.StatusSuccess {
		r.g.fail(fmt.Errorf("%w: replica %d recv %s", ErrGroupFailed, r.index, e.Status))
		return
	}
	switch r.g.cfg.Mode {
	case Event:
		r.g.handlerOps++
		r.node.Host.Submit("naive-handler", r.g.cfg.HandlerCPU, r.newHandler(e.WRID).run)
	case Polling:
		r.inbox.Push(e.WRID)
		if r.poller != nil && r.poller.Active() {
			// The spinning poller notices within its poll granularity, then
			// spends handler CPU inline on its core.
			r.dispatchInbox(r.node.Host.PollDelay())
		}
	}
}

// drainInbox is the poller's dispatch when it gets (back) on a core.
func (r *replica) drainInbox() { r.dispatchInbox(0) }

// dispatchInbox schedules one handler per parked completion, back to back
// after delay, each costing HandlerCPU.
func (r *replica) dispatchInbox(delay sim.Duration) {
	for r.inbox.Len() > 0 {
		h := r.newHandler(r.inbox.Pop())
		r.g.handlerOps++
		delay += r.g.cfg.HandlerCPU
		r.g.eng.Schedule(delay, h.run)
	}
}

// startPollers launches one poller per replica: pinned to a dedicated core
// when allowed and available, otherwise a scheduled loop task contending
// with every other tenant.
func (g *Group) startPollers() {
	for _, r := range g.replicas {
		r := r
		if g.cfg.PinCore {
			if p := r.node.Host.Pin(fmt.Sprintf("naive-poller-%d", r.index)); p != nil {
				r.poller = p
				continue
			}
		}
		r.poller = r.node.Host.StartLoop(fmt.Sprintf("naive-poller-%d", r.index), r.drainInbox)
	}
}

// handle executes one hop's replication step on the replica CPU's behalf:
// apply the memory operation locally, then forward down the chain (or ack).
// The command is decoded from, and re-encoded into, its RECV slot in place.
func (r *replica) handle(wrid uint64) {
	g := r.g
	if g.failed != nil {
		return
	}
	n := len(g.replicaNodes)
	k := int(wrid)
	slotOff := (k % ringDepth) * g.cmdLen
	slot := r.cmdRAM[slotOff:]
	cmd := &r.cmd
	cmd.decodeInto(slot, n)

	// Apply locally. The data payload for gWRITE was RDMA-written into our
	// store by the upstream node before the command SEND (same QP, in
	// order).
	switch cmd.op {
	case 1: // gwrite: durability via local flush
		if cmd.durable {
			r.flushStore(int(cmd.off), int(cmd.size))
		}
	case 2: // gcas
		if cmd.exec&(1<<uint(r.index)) != 0 {
			orig := binary.LittleEndian.Uint64(r.node.StoreWindow(int(cmd.off), 8))
			if orig == cmd.casOld {
				var nv [8]byte
				binary.LittleEndian.PutUint64(nv[:], cmd.casNew)
				r.storeWriteNICPath(int(cmd.off), nv[:])
			}
			cmd.results[r.index] = orig
		}
	case 3: // gmemcpy
		r.storeWriteNICPath(int(cmd.off), r.node.StoreWindow(int(cmd.src), int(cmd.size)))
		if cmd.durable {
			r.flushStore(int(cmd.off), int(cmd.size))
		}
	case 4: // gflush
		r.flushStore(0, r.node.Store.Len())
	}

	r.postRecv(k + ringDepth) // re-arm our ring slot

	if r.index == n-1 {
		// Tail: ack to the client with the (possibly updated) result map,
		// written over the consumed command's slot.
		ackSlot := (k % ringDepth) * 8 * n
		putWords(slot, cmd.results, n)
		if _, err := r.down.PostSend(rdma.WQE{
			Opcode: rdma.OpWriteImm, Signaled: true, Imm: cmd.seq,
			RKey: g.ackMR.RKey(), RAddr: uint64(ackSlot),
			SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slotOff), Length: uint32(8 * n)}},
		}); err != nil {
			g.fail(fmt.Errorf("%w: tail ack: %v", ErrGroupFailed, err))
		}
		return
	}

	// Forward: replicate payload (gWRITE) then the command.
	next := g.replicaNodes[r.index+1]
	if cmd.op == 1 {
		if _, err := r.down.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true,
			RKey: next.Store.RKey(), RAddr: cmd.off,
			SGEs: []rdma.SGE{{LKey: r.node.Store.LKey(), Offset: cmd.off, Length: cmd.size}},
		}); err != nil {
			g.fail(fmt.Errorf("%w: forward write: %v", ErrGroupFailed, err))
			return
		}
	}
	cmd.encodeInto(slot, n)
	if _, err := r.down.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, Signaled: true,
		SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slotOff), Length: uint32(g.cmdLen)}},
	}); err != nil {
		g.fail(fmt.Errorf("%w: forward send: %v", ErrGroupFailed, err))
	}
}

// flushStore persists a range of the local NVM (CPU-side cache-line
// write-back, charged within the handler demand).
func (r *replica) flushStore(off, size int) {
	b := r.node.Store.Backing().(*rdma.NVMBacking)
	b.Device().Flush(b.Base()+off, size)
}

// storeWriteNICPath writes the store on the volatile path (host store
// without an explicit persist — matching a CPU store that has not been
// flushed). data may alias the store (gMEMCPY's source).
func (r *replica) storeWriteNICPath(off int, data []byte) {
	b := r.node.Store.Backing().(*rdma.NVMBacking)
	b.Device().Write(b.Base()+off, data)
}

// onAck completes the head pending op when the tail's ack lands. A gCAS's
// result map is read into the op record's own buffer: Result.CASOld is
// valid until done returns.
func (g *Group) onAck(e rdma.CQE) {
	if e.Status != rdma.StatusSuccess {
		g.fail(fmt.Errorf("%w: ack %s", ErrGroupFailed, e.Status))
		return
	}
	if g.pending.Len() == 0 {
		g.fail(fmt.Errorf("%w: spurious ack", ErrGroupFailed))
		return
	}
	o := g.pending.Pop()
	if o.released {
		panic("naive: ack delivered to a released op")
	}
	if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
		g.fail(fmt.Errorf("%w: repost ack recv: %v", ErrGroupFailed, err))
		g.finish(o, Result{Seq: o.seq, Err: g.failed})
		return
	}
	res := Result{Seq: o.seq, Latency: g.eng.Now().Sub(o.issued)}
	if o.cmd.op == 2 {
		n := len(g.replicaNodes)
		res.CASOld = getWords(o.res[:0], g.ackRAM[(int(o.seq)%ringDepth)*8*n:], n)
	}
	g.finish(o, res)
	g.pump()
}

func (g *Group) pump() {
	for g.waiting.Len() > 0 && g.pending.Len() < g.cfg.MaxInflight {
		g.send(g.waiting.Pop())
	}
}

func (g *Group) submit(cmd command, done func(Result)) error {
	if g.failed != nil {
		return g.failed
	}
	g.waiting.Push(g.newOp(cmd, done))
	g.pump()
	return nil
}

// post issues one client WQE; a refused post fails the group.
func (g *Group) post(w rdma.WQE) {
	if g.failed != nil {
		return
	}
	if _, err := g.cliQP.PostSend(w); err != nil {
		g.fail(fmt.Errorf("%w: client post: %v", ErrGroupFailed, err))
	}
}

func (g *Group) send(o *op) {
	o.seq = g.issued
	g.issued++
	o.cmd.seq = o.seq
	o.issued = g.eng.Now()
	g.pending.Push(o)

	n := len(g.replicaNodes)
	head := g.replicaNodes[0]
	if o.cmd.op == 2 {
		for i := range o.res {
			o.res[i] = ^uint64(0)
		}
		o.cmd.results = o.res
	}
	if o.cmd.op == 1 {
		g.post(rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true,
			RKey: head.Store.RKey(), RAddr: o.cmd.off,
			SGEs: []rdma.SGE{{LKey: g.client.Store.LKey(), Offset: o.cmd.off, Length: o.cmd.size}},
		})
	}
	slot := (int(o.seq) % ringDepth) * g.cmdLen
	o.cmd.encodeInto(g.cliRAM[slot:], n)
	g.post(rdma.WQE{
		Opcode: rdma.OpSend, Signaled: true,
		SGEs: []rdma.SGE{{LKey: g.cliCmd.LKey(), Offset: uint64(slot), Length: uint32(g.cmdLen)}},
	})
}

// GWrite mirrors core.Group.GWrite over the baseline datapath.
func (g *Group) GWrite(off, size int, durable bool, done func(Result)) error {
	if off < 0 || size <= 0 || off+size > g.client.Store.Len() {
		return ErrBadArgs
	}
	return g.submit(command{op: 1, off: uint64(off), size: uint32(size), durable: durable}, done)
}

// GCAS mirrors core.Group.GCAS. The Result.CASOld handed to done is the op
// record's buffer, valid until done returns.
func (g *Group) GCAS(off int, old, new uint64, exec uint64, done func(Result)) error {
	if off < 0 || off+8 > g.client.Store.Len() {
		return ErrBadArgs
	}
	return g.submit(command{op: 2, off: uint64(off), casOld: old, casNew: new, exec: exec}, done)
}

// GMemcpy mirrors core.Group.GMemcpy.
func (g *Group) GMemcpy(dstOff, srcOff, size int, durable bool, done func(Result)) error {
	if dstOff < 0 || srcOff < 0 || size <= 0 {
		return ErrBadArgs
	}
	if dstOff+size > g.client.Store.Len() || srcOff+size > g.client.Store.Len() {
		return ErrBadArgs
	}
	return g.submit(command{op: 3, off: uint64(dstOff), src: uint64(srcOff), size: uint32(size), durable: durable}, done)
}

// GFlush mirrors core.Group.GFlush.
func (g *Group) GFlush(done func(Result)) error {
	return g.submit(command{op: 4}, done)
}
