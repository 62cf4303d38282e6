package core

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/fifo"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// FixedChain is the strawman §4.1 dismisses before introducing remote work
// request manipulation: WAIT alone lets NICs forward, but "NICs can only
// forward a fixed size buffer of data at a pre-defined memory location,
// which we call fixed replication". Every pre-posted descriptor is fully
// static — same offset, same length, every operation — so the chain can
// replicate exactly one buffer shape.
//
// It exists for the ablation comparing manipulation overhead against the
// fixed strawman (experiments.AblationFixedVsManipulated) and as executable
// documentation of why manipulation is necessary for real storage systems.
type FixedChain struct {
	eng      *sim.Engine
	cfg      Config
	client   *cluster.Node
	replicas []*cluster.Node
	off      int
	size     int

	cliQP   *rdma.QP
	ackQP   *rdma.QP
	ackMR   *rdma.MemoryRegion
	hops    []*fixedHop
	issued  uint64
	posted  int
	pending fifo.Queue[*op]
	waiting fifo.Queue[*op]
	failed  error
}

type fixedHop struct {
	up, down *rdma.QP
}

// NewFixedChain wires a fixed-replication chain for the single buffer
// [off, off+size) of the shared store window.
func NewFixedChain(cl *cluster.Cluster, off, size int, cfg Config) *FixedChain {
	cfg.fill()
	g := &FixedChain{
		eng: cl.Eng, cfg: cfg,
		client: cl.Client(), replicas: cl.Replicas(),
		off: off, size: size,
	}
	n := len(g.replicas)
	depth := cfg.Depth
	nodes := cl.Nodes
	type pair struct{ src, dst *rdma.QP }
	pairs := make([]pair, n+1)
	for i := 0; i <= n; i++ {
		a, b := cluster.ConnectPair(nodes[i], nodes[(i+1)%(n+1)], depth*4, depth)
		a.SendCQ().SetAutoDrain(true)
		a.RecvCQ().SetAutoDrain(true)
		b.SendCQ().SetAutoDrain(true)
		b.RecvCQ().SetAutoDrain(true)
		pairs[i] = pair{a, b}
	}
	g.cliQP = pairs[0].src
	g.ackQP = pairs[n].dst
	for i := range g.replicas {
		g.hops = append(g.hops, &fixedHop{up: pairs[i].dst, down: pairs[i+1].src})
	}
	g.cliQP.SendCQ().SetCallback(func(e rdma.CQE) {
		if e.Status != rdma.StatusSuccess {
			g.fail(fmt.Errorf("%w: fixed client completion %s", ErrGroupFailed, e.Status))
		}
	})
	g.ackQP.RecvCQ().SetCallback(func(e rdma.CQE) { g.onAck(e) })
	for k := 0; k < depth; k++ {
		if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
			panic(err)
		}
	}
	g.prime()
	g.startReplenisher()
	return g
}

func (g *FixedChain) fail(reason error) {
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

// Failed returns the failure reason, or nil.
func (g *FixedChain) Failed() error { return g.failed }

func (g *FixedChain) canPost() bool {
	for i, h := range g.hops {
		if h.up.RQTable().Posted() >= g.cfg.Depth {
			return false
		}
		slots := 3
		if i == len(g.hops)-1 {
			slots = 2
		}
		if h.down.SQTable().Slots()-h.down.SQTable().Posted() < slots {
			return false
		}
	}
	return true
}

// postOpChain pre-posts one op's fully static chain at every hop: nothing
// is ever rewritten, which is exactly the strawman's limitation.
func (g *FixedChain) postOpChain(k int) error {
	kk := uint64(k)
	n := len(g.replicas)
	for i, h := range g.hops {
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk}); err != nil {
			return err
		}
		if _, err := h.down.PostSend(rdma.WQE{
			Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk,
		}); err != nil {
			return err
		}
		if i == n-1 {
			// Tail acks the client.
			ackOff := uint64((k % g.cfg.Depth) * 8)
			if _, err := h.down.PostSend(rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk,
				RKey: g.ackWindowRKey(), RAddr: ackOff,
			}); err != nil {
				return err
			}
			continue
		}
		// Static forward: the fixed buffer to the next replica's store.
		next := g.replicas[i+1]
		if _, err := h.down.PostSend(rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true, WRID: kk,
			RKey: next.Store.RKey(), RAddr: uint64(g.off),
			SGEs: []rdma.SGE{{LKey: g.replicas[i].Store.LKey(), Offset: uint64(g.off), Length: uint32(g.size)}},
		}); err != nil {
			return err
		}
		if _, err := h.down.PostSend(rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk}); err != nil {
			return err
		}
	}
	return nil
}

// ackWindowRKey lazily registers the client-side ack ring.
func (g *FixedChain) ackWindowRKey() uint32 {
	if g.ackMR == nil {
		g.ackMR = g.client.NIC.RegisterRAM(g.cfg.Depth*8, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	}
	return g.ackMR.RKey()
}

func (g *FixedChain) prime() {
	g.ackWindowRKey()
	for g.canPost() {
		if err := g.postOpChain(g.posted); err != nil {
			panic(fmt.Sprintf("core: fixed prime: %v", err))
		}
		g.posted++
	}
}

func (g *FixedChain) startReplenisher() {
	var tick func()
	tick = func() {
		if g.failed != nil {
			return
		}
		n := 0
		for g.canPost() {
			if err := g.postOpChain(g.posted); err != nil {
				g.fail(err)
				return
			}
			g.posted++
			n++
		}
		if n > 0 {
			for _, rep := range g.replicas {
				rep.Host.Submit("hl-fixed-replenish", sim.Duration(n)*g.cfg.ChainPostCost, nil)
			}
			g.pump()
		}
		g.eng.Schedule(g.cfg.ReplenishEvery, tick)
	}
	g.eng.Schedule(g.cfg.ReplenishEvery, tick)
}

func (g *FixedChain) onAck(e rdma.CQE) {
	if e.Status != rdma.StatusSuccess {
		g.fail(fmt.Errorf("%w: fixed ack %s", ErrGroupFailed, e.Status))
		return
	}
	if g.pending.Len() == 0 {
		g.fail(fmt.Errorf("%w: fixed spurious ack", ErrGroupFailed))
		return
	}
	o := g.pending.Pop()
	if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
		g.fail(err)
		return
	}
	if o.done != nil {
		o.done(Result{Seq: o.seq, Issued: o.issued, Completed: g.eng.Now(),
			Latency: g.eng.Now().Sub(o.issued)})
	}
	g.pump()
}

func (g *FixedChain) pump() {
	for g.waiting.Len() > 0 && g.pending.Len() < g.cfg.MaxInflight && g.issued < uint64(g.posted) {
		g.send(g.waiting.Pop())
	}
}

// Write replicates the fixed buffer's current contents (the client must
// have staged data at the fixed offset). The strawman's only verb.
func (g *FixedChain) Write(done func(Result)) error {
	if g.failed != nil {
		return g.failed
	}
	g.waiting.Push(&op{done: done})
	g.pump()
	return nil
}

func (g *FixedChain) send(o *op) {
	o.seq = g.issued
	g.issued++
	o.issued = g.eng.Now()
	g.pending.Push(o)
	post := func(w rdma.WQE) {
		if g.failed != nil {
			return
		}
		if _, err := g.cliQP.PostSend(w); err != nil {
			g.fail(err)
		}
	}
	head := g.replicas[0]
	post(rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, WRID: o.seq,
		RKey: head.Store.RKey(), RAddr: uint64(g.off),
		SGEs: []rdma.SGE{{LKey: g.client.Store.LKey(), Offset: uint64(g.off), Length: uint32(g.size)}},
	})
	post(rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq})
}
