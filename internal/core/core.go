// Package core implements HyperLoop's contribution: group-based NIC-offload
// primitives for replicated NVM transactions (SIGCOMM 2018, §3-§4).
//
// A Group arranges a client (transaction coordinator) and a chain of
// replicas. For each primitive — gWRITE, gCAS, gMEMCPY, gFLUSH — every
// replica pre-posts a ring of work-request chains of the form
//
//	upstream RQ:   RECV  (scatters incoming metadata into the WQE slots
//	                      below and into a staging region)
//	downstream SQ: WAIT  (on the upstream recv CQ)
//	               op(s) (host-owned placeholders, rewritten and activated
//	                      by the RECV scatter — remote WQE manipulation)
//	               SEND  (forwards the remaining metadata down the chain)
//
// so that once the client issues an operation, the replicas' NICs detect,
// execute, and forward it entirely by themselves: no replica CPU cycle is
// on the critical path. The tail NIC acknowledges to the client with a
// WRITE_WITH_IMM. Durability interleaves 0-byte READs (gFLUSH) that drain
// the downstream NVM's NIC cache before the chain advances.
//
// Replica CPUs participate only off the critical path: a periodic
// replenisher tops up consumed rings in batches (§5, "replicas need to wake
// up periodically off the critical path").
package core

import (
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Errors surfaced by the group API.
var (
	ErrGroupFailed = errors.New("hyperloop: group failed")
	ErrBadArgs     = errors.New("hyperloop: bad primitive arguments")
	ErrTooLarge    = errors.New("hyperloop: transfer exceeds store window")
	// ErrRetriesExhausted reports that a gATOMIC_LOOP program burned its
	// whole retry budget without reaching the exit condition. The group is
	// healthy; the result map carries the last observed values.
	ErrRetriesExhausted = errors.New("hyperloop: atomic loop retries exhausted")
)

// ExecuteMap selects which replicas execute a gCAS (bit i = replica i,
// 0-indexed from the head of the chain). Excluded replicas see a NOP; their
// result-map entry keeps the sentinel value. This is what lets a client
// undo a partially-acquired group lock (§4.2).
type ExecuteMap uint64

// AllReplicas builds an ExecuteMap covering replicas [0, n).
func AllReplicas(n int) ExecuteMap { return ExecuteMap(1<<uint(n)) - 1 }

// Has reports whether replica i is selected.
func (m ExecuteMap) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// CASNotExecuted is the result-map sentinel for replicas skipped by the
// execute map.
const CASNotExecuted = ^uint64(0)

// Result reports the outcome of a group primitive.
type Result struct {
	Seq       uint64
	Issued    sim.Time
	Completed sim.Time
	Latency   sim.Duration
	// CASOld holds, for gCAS and gATOMIC_LOOP, each replica's original value
	// at the target offset, and for gWRITE_IF each replica's observed guard
	// word (CASNotExecuted where the execute map skipped the replica). The
	// slice is the op record's own buffer: it is valid until done returns,
	// after which the record — and this memory — serves another op. Copy what
	// must outlive the callback.
	CASOld []uint64
	// Attempts is, for gATOMIC_LOOP, the number of chain traversals the
	// NIC-resident program executed before exiting (1 = first try won).
	Attempts int
	Err      error
}

// Backend is the replication-backend seam: the group-primitive surface
// every layer above a group (wal, shard, load, experiments) is written
// against. *Group (HyperLoop) and *naive.Group (the replica-CPU baseline)
// both satisfy it directly; a third arm is one more implementation. A
// primitive either returns a synchronous refusal (done never fires) or
// completes through done exactly once. gCAS stays outside the seam: the two
// arms disagree on the execute-map type and only lock managers need it.
type Backend interface {
	GWrite(off, size int, durable bool, done func(Result)) error
	GMemcpy(dstOff, srcOff, size int, durable bool, done func(Result)) error
	GFlush(done func(Result)) error
	Failed() error
	Close()
}

var _ Backend = (*Group)(nil)

// Config tunes a Group. Zero values take defaults.
type Config struct {
	// Depth is the number of operations each primitive ring accommodates
	// (default 1024). Deep rings ride out replenisher scheduling delays on
	// busy hosts.
	Depth int
	// MaxInflight caps client-issued, un-acked operations per primitive
	// (default Depth/4). Beyond it, issues queue client-side.
	MaxInflight int
	// ReplenishEvery is the period of the replica-side ring replenisher
	// (default 100µs). It runs on the replica host CPU, off the critical
	// path.
	ReplenishEvery sim.Duration
	// ChainPostCost is the CPU demand to re-post one op chain (default
	// 150ns) — WQE encoding plus a doorbell, amortized by batching.
	ChainPostCost sim.Duration
	// OpTimeout fails the group if an operation sees no ack in time
	// (0 = disabled). The chain manager uses this to trigger recovery.
	OpTimeout sim.Duration
	// FusionDepth is the most adjacent queued ops of one primitive the
	// client fuses into a single posting batch: all their client-side WQEs
	// are written back to back and armed with one doorbell
	// (rdma.PostSendBatch), so any configured NIC DoorbellCost is paid once
	// per batch instead of once per op. 1 (the default) reproduces the
	// legacy one-op-per-doorbell issue path exactly.
	FusionDepth int
	// LoopTick is the timer-CQ period driving NIC-side capped backoff in
	// gATOMIC_LOOP programs (default 1µs). A retry waits for a power-of-two
	// number of ticks, doubling per attempt up to loopBackoffCap.
	LoopTick sim.Duration
	// PredPayloadCap bounds the payload a gWRITE_IF carries through the
	// metadata chain (default 256 bytes). Predicated writes ship their data
	// inside the chain message so the guard and the write execute on the
	// replica NIC with no client round trip in between.
	PredPayloadCap int
}

func (c *Config) fill() {
	if c.Depth <= 0 {
		c.Depth = 1024
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = c.Depth / 4
	}
	if c.MaxInflight > c.Depth/2 {
		c.MaxInflight = c.Depth / 2
	}
	if c.ReplenishEvery <= 0 {
		c.ReplenishEvery = 100 * sim.Microsecond
	}
	if c.ChainPostCost <= 0 {
		c.ChainPostCost = 150
	}
	if c.FusionDepth <= 0 {
		c.FusionDepth = 1
	}
	if c.FusionDepth > c.MaxInflight {
		c.FusionDepth = c.MaxInflight
	}
	if c.LoopTick <= 0 {
		c.LoopTick = sim.Microsecond
	}
	if c.PredPayloadCap <= 0 {
		c.PredPayloadCap = 256
	}
}

// Group is a HyperLoop replication group: node 0 of the cluster is the
// client/coordinator, nodes 1..n form the chain.
type Group struct {
	eng      *sim.Engine
	cfg      Config
	client   *cluster.Node
	replicas []*cluster.Node

	channels [numChanKinds]*channel
	freeOps  []*op // finished op records, reused by newOp
	failed   error
	onError  func(error)
	closed   bool

	opsIssued    uint64
	opsCompleted uint64
	fusedBatches uint64 // multi-op postings issued under FusionDepth > 1
	fusedOps     uint64 // ops carried inside those postings

	// One replenish round's downstream and loopback chains. Rounds run one
	// channel at a time and never nest, so the group's channels share this
	// scratch; it keeps the priming round's size, which no later round
	// outgrows.
	downWQEs, loopWQEs []rdma.WQE
}

// New wires a HyperLoop group over an existing cluster (node 0 = client).
// The cluster must have at least two nodes.
func New(cl *cluster.Cluster, cfg Config) *Group {
	return NewWithNodes(cl.Eng, cl.Client(), cl.Replicas(), cfg)
}

// NewWithNodes wires a group over an explicit topology: client plus an
// ordered replica chain. Nodes may be shared with other groups — that is
// exactly the multi-tenant co-location the paper studies.
func NewWithNodes(eng *sim.Engine, client *cluster.Node, replicas []*cluster.Node, cfg Config) *Group {
	if client == nil || len(replicas) < 1 {
		panic("core: group needs a client and at least one replica")
	}
	cfg.fill()
	g := &Group{
		eng:      eng,
		cfg:      cfg,
		client:   client,
		replicas: replicas,
	}
	for k := range g.channels {
		g.channels[k] = g.buildChannel(chanKind(k))
	}
	for _, ch := range g.channels {
		ch.prime()
	}
	g.startReplenishers()
	return g
}

// GroupSize returns the number of replicas.
func (g *Group) GroupSize() int { return len(g.replicas) }

// Client returns the coordinator node.
func (g *Group) Client() *cluster.Node { return g.client }

// Replica returns replica i (0-indexed from the head).
func (g *Group) Replica(i int) *cluster.Node { return g.replicas[i] }

// OpsCompleted returns the number of acknowledged primitives.
func (g *Group) OpsCompleted() uint64 { return g.opsCompleted }

// FusionStats reports multi-op WQE fusion activity: batches is the number
// of postings that carried more than one op, ops the total ops inside them.
// Both stay zero at FusionDepth 1 or with an always-idle issue queue.
func (g *Group) FusionStats() (batches, ops uint64) { return g.fusedBatches, g.fusedOps }

// SetErrorHandler installs a callback invoked once if the group fails.
func (g *Group) SetErrorHandler(fn func(error)) { g.onError = fn }

// Failed returns the failure reason, or nil.
func (g *Group) Failed() error { return g.failed }

// Close stops the replenishers. In-flight operations are abandoned.
func (g *Group) Close() { g.closed = true }

// fail moves the group to the failed state and flushes pending operations
// with errors.
func (g *Group) fail(reason error) {
	if g.failed != nil {
		return
	}
	g.failed = reason
	for _, ch := range g.channels {
		ch.failAll(reason)
	}
	if g.onError != nil {
		g.onError(reason)
	}
}

// GWrite replicates size bytes at offset off of the client's store to the
// same offset on every replica (gWRITE, Table 1). With durable set, gFLUSH
// is interleaved at every hop so the ack implies durability (§4.2). The
// data must already be present in the client's store window.
func (g *Group) GWrite(off, size int, durable bool, done func(Result)) error {
	if off < 0 || size <= 0 {
		return ErrBadArgs
	}
	if off+size > g.client.Store.Len() {
		return ErrTooLarge
	}
	o := g.newOp(done)
	o.off, o.size, o.durable = off, size, durable
	return g.channels[chWrite].submit(o)
}

// GCAS performs a compare-and-swap of the 8-byte word at offset off on every
// replica selected by exec, returning each replica's original value via the
// result map (gCAS, Table 1).
func (g *Group) GCAS(off int, old, new uint64, exec ExecuteMap, done func(Result)) error {
	if off < 0 || off+8 > g.client.Store.Len() {
		return ErrBadArgs
	}
	o := g.newOp(done)
	o.off, o.casOld, o.casNew, o.exec = off, old, new, exec
	return g.channels[chCAS].submit(o)
}

// GMemcpy copies size bytes from srcOff to dstOff within every replica's
// store (gMEMCPY, Table 1) — the NIC-local copy that commits logged
// transactions to the data region without replica CPUs. With durable set,
// each replica's NVM is flushed after the copy.
func (g *Group) GMemcpy(dstOff, srcOff, size int, durable bool, done func(Result)) error {
	if srcOff < 0 || dstOff < 0 || size <= 0 {
		return ErrBadArgs
	}
	limit := g.client.Store.Len()
	if srcOff+size > limit || dstOff+size > limit {
		return ErrTooLarge
	}
	o := g.newOp(done)
	o.off, o.src, o.size, o.durable = dstOff, srcOff, size, durable
	return g.channels[chMemcpy].submit(o)
}

// GFlush drains the NIC cache into NVM on every replica (standalone gFLUSH,
// Table 1): the ack implies all previously replicated data is durable.
func (g *Group) GFlush(done func(Result)) error {
	return g.channels[chFlush].submit(g.newOp(done))
}

// GAtomicLoop runs a bounded atomic retry loop as a NIC-resident WQE
// program (gATOMIC_LOOP): the client's pre-posted template re-issues the
// chain until the guard replica's observed value satisfies the exit
// condition or the budget runs out, with capped exponential backoff served
// by a timer CQ — no host CPU on any retry. done receives Err == nil on
// exit-condition success, ErrRetriesExhausted otherwise; either way CASOld
// carries the final attempt's observed values and Attempts the traversal
// count.
func (g *Group) GAtomicLoop(spec LoopSpec, done func(Result)) error {
	if spec.Off < 0 || spec.Off+8 > g.client.Store.Len() {
		return ErrBadArgs
	}
	if spec.Kind != LoopCAS && spec.Kind != LoopMaskFAdd {
		return ErrBadArgs
	}
	if spec.GuardReplica < 0 || spec.GuardReplica >= len(g.replicas) ||
		!spec.Exec.Has(spec.GuardReplica) {
		return ErrBadArgs // the exit test reads the guard replica's result word
	}
	if spec.Budget < 0 {
		return ErrBadArgs
	}
	o := g.newOp(done)
	o.off, o.exec, o.loop = spec.Off, spec.Exec, spec
	return g.channels[chLoop].submit(o)
}

// GWriteIf replicates a predicated write (gWRITE_IF): each replica's NIC
// compares its local 8-byte word at guardOff (under mask; 0 = full word)
// against want and applies the write only on match — an epoch-fence check
// with no host round trip. The payload travels inside the chain metadata
// (bounded by PredPayloadCap). Err is nil whether or not guards matched;
// CASOld carries each replica's observed guard word for the caller to
// check.
func (g *Group) GWriteIf(off, size, guardOff int, want, mask uint64, done func(Result)) error {
	if off < 0 || size <= 0 || guardOff < 0 {
		return ErrBadArgs
	}
	if off+size > g.client.Store.Len() || guardOff+8 > g.client.Store.Len() {
		return ErrTooLarge
	}
	if size > g.cfg.PredPayloadCap {
		return ErrTooLarge
	}
	o := g.newOp(done)
	o.off, o.size, o.guardOff, o.guardWant, o.guardMask = off, size, guardOff, want, mask
	return g.channels[chWriteIf].submit(o)
}

// String describes the group.
func (g *Group) String() string {
	return fmt.Sprintf("hyperloop.Group{replicas=%d depth=%d}", len(g.replicas), g.cfg.Depth)
}

// startReplenishers schedules each replica's periodic ring top-up on its
// host CPU (off the critical path). Each replica's tick and post steps are
// bound once here, so a replenish round allocates nothing.
func (g *Group) startReplenishers() {
	for ri := range g.replicas {
		ri := ri
		var tick, post func()
		post = func() {
			if g.closed || g.failed != nil {
				return
			}
			for _, ch := range g.channels {
				ch.replenish(ri)
			}
			g.eng.Schedule(g.cfg.ReplenishEvery, tick)
		}
		tick = func() {
			if g.closed || g.failed != nil {
				return
			}
			need := 0
			for _, ch := range g.channels {
				need += ch.replenishable(ri)
			}
			if need == 0 {
				g.eng.Schedule(g.cfg.ReplenishEvery, tick)
				return
			}
			demand := sim.Duration(need) * g.cfg.ChainPostCost
			g.replicas[ri].Host.Submit("hl-replenish", demand, post)
		}
		g.eng.Schedule(g.cfg.ReplenishEvery, tick)
	}
}
