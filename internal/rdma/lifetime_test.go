package rdma

import (
	"testing"
)

// Object-lifetime rules of the allocation-free datapath: pooled packets are
// released exactly once and poisoned, and the table-owned WQE peek hands out
// is never a cache — the slot image stays authoritative.

// freePackets walks a NIC's free list, failing on a record listed twice or
// not poisoned.
func freePackets(t *testing.T, n *NIC) int {
	t.Helper()
	seen := map[*packet]bool{}
	for p := n.freePkts; p != nil; p = p.next {
		if seen[p] {
			t.Fatal("packet on the free list twice")
		}
		seen[p] = true
		if p.kind != pkFree || p.data != nil || p.nic != nil || p.qp != nil {
			t.Fatalf("released packet not poisoned: %+v", p)
		}
	}
	return len(seen)
}

// A WRITE round trip consumes two packets (request at the responder, ack at
// the requester's completion); both end on a free list exactly once,
// poisoned, and the next round trip reuses them instead of allocating.
func TestPacketsReleasedOncePoisonedReused(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, AccessLocalWrite)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	w := WQE{Opcode: OpWrite, Signaled: true, RKey: dst.RKey(),
		SGEs: []SGE{{LKey: src.LKey(), Length: 16}}}
	// Count completions by callback on a draining CQ: Poll allocates its
	// result, which is the harness's cost, not the datapath's.
	done := 0
	r.acq.SetAutoDrain(true)
	r.acq.SetCallback(func(e CQE) {
		if e.Status == StatusSuccess {
			done++
		}
	})
	roundTrip := func() {
		if _, err := r.qa.PostSend(w); err != nil {
			t.Fatal(err)
		}
		r.eng.Drain()
	}
	roundTrip()
	// B released the request once it had served it, A the ack at delivery.
	if a, b := freePackets(t, r.na), freePackets(t, r.nb); a != 1 || b != 1 {
		t.Fatalf("free lists hold %d/%d packets after one round trip, want 1/1", a, b)
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Errorf("steady-state WRITE round trip allocates %v/op, want 0", n)
	}
	if a, b := freePackets(t, r.na), freePackets(t, r.nb); a != 1 || b != 1 {
		t.Fatalf("free lists grew to %d/%d packets under a closed loop", a, b)
	}
	if done != 102 {
		t.Fatalf("%d/102 round trips completed", done)
	}
}

func TestReleasedPacketPanics(t *testing.T) {
	r := newRig(t)
	p := r.na.newPacket(pkAck)
	p.nic = r.na
	r.na.releasePacket(p)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a released packet did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Fire", p.Fire)
	mustPanic("releasePacket", func() { r.na.releasePacket(p) })
}

// Fault paths release exactly once too: a responder-side protection fault
// (error ack, requester QP flushed), a READ response that arrives after its
// QP was destroyed, and packets a cut link swallows (never released, never
// double-released).
func TestFaultPathsReleaseOnce(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, AccessLocalWrite)
	ro := r.nb.RegisterRAM(64, AccessRemoteRead) // not remotely writable

	// 1. WRITE into a read-only region: error ack, QP A enters error.
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: ro.RKey(),
		SGEs: []SGE{{LKey: src.LKey(), Length: 8}}})
	r.eng.Drain()
	if r.qa.State() != QPError {
		t.Fatalf("QP state %v after remote access error", r.qa.State())
	}
	freePackets(t, r.na)
	freePackets(t, r.nb)

	// 2. A response in flight toward a destroyed QP is dropped and released.
	r2 := newRig(t)
	dst := r2.na.RegisterRAM(64, AccessLocalWrite)
	rd := r2.nb.RegisterRAM(64, AccessRemoteRead)
	r2.qa.PostSend(WQE{Opcode: OpRead, Signaled: true, RKey: rd.RKey(),
		SGEs: []SGE{{LKey: dst.LKey(), Length: 8}}})
	r2.eng.RunUntil(func() bool { return r2.nb.Counters().ReadsRx == 1 }, 1<<40)
	r2.na.DestroyQP(r2.qa)
	r2.eng.Drain()
	if got := freePackets(t, r2.na) + freePackets(t, r2.nb); got != 2 {
		t.Fatalf("%d packets released, want the request and the orphaned response", got)
	}

	// 3. A request swallowed by a cut link is never released.
	r3 := newRig(t)
	s3 := r3.na.RegisterRAM(64, AccessLocalWrite)
	d3 := r3.nb.RegisterRAM(64, AccessRemoteWrite)
	r3.net.CutBoth(r3.na.Node(), r3.nb.Node())
	r3.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: d3.RKey(),
		SGEs: []SGE{{LKey: s3.LKey(), Length: 8}}})
	r3.eng.Drain()
	if got := freePackets(t, r3.na) + freePackets(t, r3.nb); got != 0 {
		t.Fatalf("%d packets released although the link dropped the only one", got)
	}
}

// The NIC stalls at a host-owned head slot having already decoded it. A
// remote WRITE that then replaces the slot image (new target address,
// ownership granted) must be what executes: peek re-decodes the image, it
// does not reuse the WQE it handed out before.
func TestRemotePatchAfterPeekObserved(t *testing.T) {
	r := newRig(t)
	stalls := 0
	r.na.SetTracer(func(e TraceEvent) {
		if e.Kind == "stall" {
			stalls++
		}
	})
	src := r.na.RegisterRAM(64, AccessLocalWrite)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	pay := []byte("patched-after-peek")
	src.Backing().WriteAt(0, pay)

	held := WQE{Opcode: OpWrite, Signaled: true, WRID: 7, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Length: uint32(len(pay))}}}
	idx, err := r.qa.PostSend(held, HoldOwnership)
	if err != nil {
		t.Fatal(err)
	}
	if stalls != 1 {
		t.Fatalf("NIC peeked the held slot %d times before the patch, want 1", stalls)
	}

	// B rewrites A's slot through the send table's rkey.
	patched := held
	patched.RAddr, patched.HWOwned = 32, true
	img := r.nb.RegisterRAM(SlotSize, AccessLocalWrite)
	img.Backing().WriteAt(0, patched.EncodeImage())
	sq := r.qa.SQTable()
	r.qb.PostSend(WQE{Opcode: OpWrite, RKey: sq.MR().RKey(), RAddr: uint64(sq.SlotOffset(idx)),
		SGEs: []SGE{{LKey: img.LKey(), Length: SlotSize}}})
	r.eng.Drain()

	if c := r.acq.Poll(2); len(c) != 1 || c[0].WRID != 7 || c[0].Status != StatusSuccess {
		t.Fatalf("completions %+v", c)
	}
	got := make([]byte, len(pay))
	dst.Backing().ReadAt(32, got)
	if string(got) != string(pay) {
		t.Fatalf("patched address not used: dst@32 = %q", got)
	}
	dst.Backing().ReadAt(0, got)
	if string(got) == string(pay) {
		t.Fatal("write landed at the address decoded before the patch")
	}
}

// Same rule for a head the NIC is parked on: a WAIT that can never fire is
// replaced, by remote WRITE, with an armed signaled NOP — which completes.
func TestRemotePatchReplacesParkedWait(t *testing.T) {
	r := newRig(t)
	never := r.na.CreateCQ()
	idx, err := r.qa.PostSend(WQE{Opcode: OpWait, WaitCQ: never.ID(), WaitCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	if r.acq.Depth() != 0 {
		t.Fatal("parked WAIT completed")
	}
	nop := WQE{Opcode: OpNop, Signaled: true, HWOwned: true, WRID: 9}
	img := r.nb.RegisterRAM(SlotSize, AccessLocalWrite)
	img.Backing().WriteAt(0, nop.EncodeImage())
	sq := r.qa.SQTable()
	r.qb.PostSend(WQE{Opcode: OpWrite, RKey: sq.MR().RKey(), RAddr: uint64(sq.SlotOffset(idx)),
		SGEs: []SGE{{LKey: img.LKey(), Length: SlotSize}}})
	r.eng.Drain()
	if c := r.acq.Poll(2); len(c) != 1 || c[0].WRID != 9 || c[0].Opcode != OpNop {
		t.Fatalf("completions %+v, want the patched-in NOP", c)
	}
}

// Info renders exactly the strings the NIC used to format eagerly.
func TestTraceEventInfo(t *testing.T) {
	cases := []struct {
		e    TraceEvent
		want string
	}{
		{TraceEvent{detail: detailHostOwned}, "host-owned"},
		{TraceEvent{detail: detailWaitFired, a: 3, b: 2}, "fired cq=3 count=2"},
		{TraceEvent{detail: detailExec, a: 4096, b: 1024}, "raddr=4096 len=1024"},
		{TraceEvent{detail: detailGuardPass, a: 0xbeef}, "pass obs=beef"},
		{TraceEvent{detail: detailGuardSkip, a: 1, b: 0xbeef}, "skip 1 obs=beef"},
		{TraceEvent{detail: detailLoopExit, a: uint64(StatusRetryExhausted), b: 0x10, c: 5}, "retry-exhausted obs=10 exit=5"},
		{TraceEvent{detail: detailLoopRetry, a: 0x10, b: 6, c: 1}, "retry obs=10 budget=6 target=1"},
		{TraceEvent{detail: detailRx, a: uint64(pkWriteImm), b: 64, c: 128}, "WRITE_IMM 64B raddr=128"},
		{TraceEvent{}, ""},
	}
	for _, c := range cases {
		if got := c.e.Info(); got != c.want {
			t.Errorf("Info() = %q, want %q", got, c.want)
		}
	}
}
