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
	// client-side (default 64).
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
// is encoded into a wire buffer so message sizes are honest.
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
	results []uint64 // accumulated CAS results
}

const cmdOp = 1 + 8 + 8 + 8 + 4 + 1 + 8 + 8 + 8

func (m *command) encode(n int) []byte {
	buf := make([]byte, cmdOp+8*n)
	buf[0] = m.op
	binary.LittleEndian.PutUint64(buf[1:], m.seq)
	binary.LittleEndian.PutUint64(buf[9:], m.off)
	binary.LittleEndian.PutUint64(buf[17:], m.src)
	binary.LittleEndian.PutUint32(buf[25:], m.size)
	if m.durable {
		buf[29] = 1
	}
	binary.LittleEndian.PutUint64(buf[30:], m.casOld)
	binary.LittleEndian.PutUint64(buf[38:], m.casNew)
	binary.LittleEndian.PutUint64(buf[46:], m.exec)
	for i, v := range m.results {
		binary.LittleEndian.PutUint64(buf[cmdOp+8*i:], v)
	}
	return buf
}

func decodeCommand(buf []byte, n int) command {
	m := command{
		op:      buf[0],
		seq:     binary.LittleEndian.Uint64(buf[1:]),
		off:     binary.LittleEndian.Uint64(buf[9:]),
		src:     binary.LittleEndian.Uint64(buf[17:]),
		size:    binary.LittleEndian.Uint32(buf[25:]),
		durable: buf[29] == 1,
		casOld:  binary.LittleEndian.Uint64(buf[30:]),
		casNew:  binary.LittleEndian.Uint64(buf[38:]),
		exec:    binary.LittleEndian.Uint64(buf[46:]),
	}
	for i := 0; i < n; i++ {
		m.results = append(m.results, binary.LittleEndian.Uint64(buf[cmdOp+8*i:]))
	}
	return m
}

// replica is one hop's software state: its QPs plus the host-side handler.
type replica struct {
	g      *Group
	index  int
	node   *cluster.Node
	up     *rdma.QP // from previous node
	down   *rdma.QP // toward next node (client for the tail)
	cmdBuf *rdma.MemoryRegion
	poller *cpusched.Task
	inbox  []rdma.CQE // completions awaiting the poller
	recvs  int
}

// Group is a Naïve-RDMA replication group over the same cluster layout as
// core.Group: node 0 is the client.
type Group struct {
	eng          *sim.Engine
	cfg          Config
	client       *cluster.Node
	replicaNodes []*cluster.Node
	replicas     []*replica

	cliQP   *rdma.QP
	ackQP   *rdma.QP
	cliCmd  *rdma.MemoryRegion
	ackMR   *rdma.MemoryRegion
	pending fifo.Queue[*op]
	waiting fifo.Queue[*op]
	issued  uint64
	failed  error

	handlerOps uint64 // replica handler activations (CPU critical path)
}

type op struct {
	seq    uint64
	cmd    command
	issued sim.Time
	done   func(Result)
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
	g := &Group{eng: eng, cfg: cfg, client: client, replicaNodes: replicaNodes}
	n := len(replicaNodes)

	nodes := append([]*cluster.Node{client}, replicaNodes...)
	type pair struct{ src, dst *rdma.QP }
	pairs := make([]pair, n+1)
	for i := 0; i <= n; i++ {
		a, b := cluster.ConnectPair(nodes[i], nodes[(i+1)%(n+1)], 4*ringDepth, ringDepth)
		pairs[i] = pair{a, b}
	}
	g.cliQP = pairs[0].src
	g.ackQP = pairs[n].dst
	g.cliCmd = g.client.NIC.RegisterRAM(ringDepth*(cmdOp+8*n), rdma.AccessLocalWrite)
	g.ackMR = g.client.NIC.RegisterRAM(ringDepth*8*maxInt(n, 1), rdma.AccessLocalWrite|rdma.AccessRemoteWrite)

	for i, node := range replicaNodes {
		r := &replica{
			g:     g,
			index: i,
			node:  node,
			up:    pairs[i].dst,
			down:  pairs[i+1].src,
		}
		r.cmdBuf = node.NIC.RegisterRAM(ringDepth*(cmdOp+8*n), rdma.AccessLocalWrite)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
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

func (g *Group) fail(reason error) {
	if g.failed != nil {
		return
	}
	g.failed = reason
	for _, q := range []*fifo.Queue[*op]{&g.pending, &g.waiting} {
		for q.Len() > 0 {
			if o := q.Pop(); o.done != nil {
				o.done(Result{Seq: o.seq, Err: reason})
			}
		}
	}
}

func (r *replica) postRecv(k int) {
	n := len(r.g.replicaNodes)
	slot := (k % ringDepth) * (cmdOp + 8*n)
	if _, err := r.up.PostRecv(rdma.WQE{
		WRID: uint64(k),
		SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slot), Length: uint32(cmdOp + 8*n)}},
	}); err != nil {
		r.g.fail(fmt.Errorf("%w: repost recv: %v", ErrGroupFailed, err))
	}
	r.recvs++
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
		r.node.Host.Submit("naive-handler", r.g.cfg.HandlerCPU, func() { r.handle(e) })
	case Polling:
		r.inbox = append(r.inbox, e)
		if r.poller != nil && r.poller.Active() {
			// The spinning poller notices within its poll granularity, then
			// spends handler CPU inline on its core.
			batch := r.inbox
			r.inbox = nil
			delay := r.node.Host.PollDelay()
			for _, cqe := range batch {
				cqe := cqe
				r.g.handlerOps++
				delay += r.g.cfg.HandlerCPU
				r.g.eng.Schedule(delay, func() { r.handle(cqe) })
			}
		}
	}
}

// drainInbox is the poller's dispatch when it gets (back) on a core.
func (r *replica) drainInbox() {
	batch := r.inbox
	r.inbox = nil
	delay := sim.Duration(0)
	for _, cqe := range batch {
		cqe := cqe
		r.g.handlerOps++
		delay += r.g.cfg.HandlerCPU
		r.g.eng.Schedule(delay, func() { r.handle(cqe) })
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
func (r *replica) handle(e rdma.CQE) {
	g := r.g
	if g.failed != nil {
		return
	}
	n := len(g.replicaNodes)
	k := int(e.WRID)
	slot := (k % ringDepth) * (cmdOp + 8*n)
	raw := make([]byte, cmdOp+8*n)
	r.cmdBuf.Backing().ReadAt(slot, raw)
	cmd := decodeCommand(raw, n)

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
		// Tail: ack to the client with the (possibly updated) result map.
		ackSlot := (k % ringDepth) * 8 * maxInt(n, 1)
		res := make([]byte, 8*n)
		for i, v := range cmd.results {
			binary.LittleEndian.PutUint64(res[8*i:], v)
		}
		r.cmdBuf.Backing().WriteAt(slot, res)
		if _, err := r.down.PostSend(rdma.WQE{
			Opcode: rdma.OpWriteImm, Signaled: true, Imm: cmd.seq,
			RKey: g.ackMR.RKey(), RAddr: uint64(ackSlot),
			SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slot), Length: uint32(8 * n)}},
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
	r.cmdBuf.Backing().WriteAt(slot, cmd.encode(n))
	if _, err := r.down.PostSend(rdma.WQE{
		Opcode: rdma.OpSend, Signaled: true,
		SGEs: []rdma.SGE{{LKey: r.cmdBuf.LKey(), Offset: uint64(slot), Length: uint32(cmdOp + 8*n)}},
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

// storeWriteNICPath mutates the store through the volatile-coherent view
// (host store without an explicit persist — matching a CPU store that has
// not been flushed).
func (r *replica) storeWriteNICPath(off int, data []byte) {
	b := r.node.Store.Backing().(*rdma.NVMBacking)
	copy(b.Device().View(b.Base()+off, len(data)), data)
	b.Device().MarkDirty(b.Base()+off, len(data))
}

// onAck completes the head pending op when the tail's ack lands.
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
	if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
		g.fail(err)
		return
	}
	res := Result{Seq: o.seq, Latency: g.eng.Now().Sub(o.issued)}
	if o.cmd.op == 2 {
		n := len(g.replicaNodes)
		buf := make([]byte, 8*n)
		g.ackMR.Backing().ReadAt((int(o.seq)%ringDepth)*8*maxInt(n, 1), buf)
		res.CASOld = make([]uint64, n)
		for i := range res.CASOld {
			res.CASOld[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
	}
	if o.done != nil {
		o.done(res)
	}
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
	o := &op{cmd: cmd, done: done}
	g.waiting.Push(o)
	g.pump()
	return nil
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
		o.cmd.results = make([]uint64, n)
		for i := range o.cmd.results {
			o.cmd.results[i] = ^uint64(0)
		}
	}
	post := func(w rdma.WQE) {
		if g.failed != nil {
			return
		}
		if _, err := g.cliQP.PostSend(w); err != nil {
			g.fail(fmt.Errorf("%w: client post: %v", ErrGroupFailed, err))
		}
	}
	if o.cmd.op == 1 {
		post(rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true,
			RKey: head.Store.RKey(), RAddr: o.cmd.off,
			SGEs: []rdma.SGE{{LKey: g.client.Store.LKey(), Offset: o.cmd.off, Length: o.cmd.size}},
		})
	}
	slot := (int(o.seq) % ringDepth) * (cmdOp + 8*n)
	g.cliCmd.Backing().WriteAt(slot, o.cmd.encode(n))
	post(rdma.WQE{
		Opcode: rdma.OpSend, Signaled: true,
		SGEs: []rdma.SGE{{LKey: g.cliCmd.LKey(), Offset: uint64(slot), Length: uint32(cmdOp + 8*n)}},
	})
}

// GWrite mirrors core.Group.GWrite over the baseline datapath.
func (g *Group) GWrite(off, size int, durable bool, done func(Result)) error {
	if off < 0 || size <= 0 || off+size > g.client.Store.Len() {
		return ErrBadArgs
	}
	return g.submit(command{op: 1, off: uint64(off), size: uint32(size), durable: durable}, done)
}

// GCAS mirrors core.Group.GCAS.
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
