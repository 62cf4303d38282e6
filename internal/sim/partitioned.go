// Conservative parallel discrete-event simulation: a PartitionedEngine runs
// one slab-heap Engine per partition concurrently under a bounded-lag CMB
// scheme. Each partition owns a disjoint set of actors; the only way state
// crosses a partition boundary is an explicit Send, which models a fabric
// hop and therefore arrives at least `lookahead` after it was issued.
//
// Safety rests on one number: GlobalMin, the minimum over every partition of
// (its next local event, its round floor while firing, the earliest
// undrained arrival addressed to it). Because every cross-partition message
// is delivered >= lookahead after its send instant, no event earlier than
// GlobalMin + lookahead can ever materialize anywhere — so every partition
// may fire everything strictly before that horizon without coordination.
// GlobalMin is monotone (appends land at >= sender floor + lookahead, and a
// partition's floor never retreats), which makes the horizon race-free: a
// stale read is merely more conservative.
//
// Determinism does not come from the horizon at all. Every event carries a
// merge key (time, source partition, per-source sequence) and each
// partition's heap pops in exactly that order, so the fired sequence of
// every partition is a property of the model, independent of worker count,
// round boundaries, or drain timing. The horizon only gates *how far* a
// round may run, never *in what order*.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// SkewViolation records one breach of the conservative-lookahead contract:
// either a Send that promised less delay than the configured lookahead, or
// an arrival drained after its destination's clock had already passed it
// (the downstream symptom of the former). A correct configuration records
// none; check.PartitionSkew turns the absence into an invariant verdict.
type SkewViolation struct {
	Src, Dst int
	At       Time   // requested delivery instant
	Bound    Time   // the bound it violated (send floor + lookahead, or the destination clock)
	Kind     string // "send-lookahead" or "arrival-behind-clock"
}

func (v SkewViolation) String() string {
	return fmt.Sprintf("skew[%s] p%d->p%d at %v bound %v", v.Kind, v.Src, v.Dst, v.At, v.Bound)
}

// handoff is one directed cross-partition channel. Appends come only from
// the source partition's firing goroutine, drains only from the destination
// partition's round — both under the PartitionedEngine mutex.
type handoff struct {
	seq  uint64 // per-channel deterministic sequence, assigned at send
	msgs []handoffMsg
}

type handoffMsg struct {
	at  Time
	seq uint64
	ev  Event
}

// PartitionedEngine executes n partition Engines concurrently while keeping
// every partition's event order bit-identical at any worker count. Build
// actors on Partition(i) engines before the first Run; cross-partition
// effects must go through Send. Not safe for concurrent use by callers:
// Run, Send-from-within-events, and the accessors follow the same
// single-driver discipline as Engine itself.
type PartitionedEngine struct {
	lookahead Duration
	parts     []*Engine
	workers   int
	pacer     func(part int) // test scaffolding: invoked at every round start

	mu      sync.Mutex
	selfB   []Time       // per-partition floor: heap peek between rounds, round floor while firing
	chanMin []Time       // per-destination min delivery time over undrained arrivals
	chans   [][]*handoff // [src][dst]
	skew    []SkewViolation
	done    atomic.Bool
}

// NewPartitioned builds a partitioned engine with n partitions and the given
// conservative lookahead: the guaranteed minimum delay of any
// cross-partition Send, normally fabric.Config.MinLatency of the
// inter-partition link. lookahead must be positive — a zero-lookahead model
// has no exploitable concurrency and should run on a single Engine.
func NewPartitioned(n int, lookahead Duration) *PartitionedEngine {
	if n < 1 {
		panic("sim: partitioned engine needs at least one partition")
	}
	if lookahead <= 0 {
		panic("sim: partitioned engine needs a positive lookahead")
	}
	pe := &PartitionedEngine{
		lookahead: lookahead,
		parts:     make([]*Engine, n),
		selfB:     make([]Time, n),
		chanMin:   make([]Time, n),
		chans:     make([][]*handoff, n),
	}
	for i := range pe.parts {
		pe.parts[i] = NewEngine()
		pe.parts[i].tag = int32(i)
		pe.selfB[i] = Forever
		pe.chanMin[i] = Forever
		pe.chans[i] = make([]*handoff, n)
		for j := range pe.chans[i] {
			pe.chans[i][j] = &handoff{}
		}
	}
	return pe
}

// Partitions returns the partition count.
func (pe *PartitionedEngine) Partitions() int { return len(pe.parts) }

// Partition returns partition i's engine. Actors built on it belong to
// partition i and must never touch another partition's state directly.
func (pe *PartitionedEngine) Partition(i int) *Engine { return pe.parts[i] }

// Lookahead returns the configured conservative lookahead.
func (pe *PartitionedEngine) Lookahead() Duration { return pe.lookahead }

// SetWorkers fixes the worker count used by Run: 0 selects GOMAXPROCS,
// 1 forces the serial reference schedule (same event order, one goroutine).
func (pe *PartitionedEngine) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	pe.workers = w
}

// SetPacer installs a test-only hook invoked at the start of every round
// with the partition index, letting determinism tests perturb worker
// interleavings (random Gosched/sleep) without touching the scheduler.
func (pe *PartitionedEngine) SetPacer(fn func(part int)) { pe.pacer = fn }

// SkewViolations returns every recorded breach of the lookahead contract,
// in the deterministic order the destination partitions observed them
// within each partition (cross-partition order is reported per destination).
func (pe *PartitionedEngine) SkewViolations() []SkewViolation {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	out := make([]SkewViolation, len(pe.skew))
	copy(out, pe.skew)
	return out
}

// TotalFired sums fired-event counts over all partitions.
func (pe *PartitionedEngine) TotalFired() uint64 {
	var n uint64
	for _, p := range pe.parts {
		n += p.Fired()
	}
	return n
}

// TotalPending sums pending events and undrained arrivals over all
// partitions. Only meaningful between Run calls.
func (pe *PartitionedEngine) TotalPending() int {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	n := 0
	for i, p := range pe.parts {
		n += p.Pending()
		for src := range pe.chans {
			n += len(pe.chans[src][i].msgs)
		}
	}
	return n
}

// Send schedules fn on partition dst at the sender's current time plus d.
// It must be called from within an event firing on partition src (or from
// the setup thread before the first Run). The lookahead contract requires
// d >= Lookahead(); a shorter delay is recorded as a skew violation and
// still delivered, so the checker — not a crash — reports the broken
// configuration.
func (pe *PartitionedEngine) Send(src, dst int, d Duration, fn func()) {
	if fn == nil {
		panic("sim: partitioned send nil func")
	}
	if src == dst {
		pe.parts[src].Schedule(d, fn)
		return
	}
	now := pe.parts[src].Now()
	at := now.Add(d)
	pe.mu.Lock()
	if d < pe.lookahead {
		pe.skew = append(pe.skew, SkewViolation{
			Src: src, Dst: dst, At: at, Bound: now.Add(pe.lookahead), Kind: "send-lookahead",
		})
	}
	ch := pe.chans[src][dst]
	ch.seq++
	ch.msgs = append(ch.msgs, handoffMsg{at: at, seq: ch.seq, ev: funcEvent(fn)})
	if at < pe.chanMin[dst] {
		pe.chanMin[dst] = at
	}
	pe.mu.Unlock()
}

// Run fires events on every partition until no event at or before deadline
// remains anywhere, then advances each partition's clock to the deadline
// (when finite), mirroring Engine.Run. Repeated calls with increasing
// deadlines drive the simulation in deterministic chunks; the event order
// of every partition is byte-identical at any worker count.
func (pe *PartitionedEngine) Run(deadline Time) {
	w := pe.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(pe.parts) {
		w = len(pe.parts)
	}
	pe.done.Store(false)
	// Seed every floor from the real heap state before any worker looks at
	// GlobalMin: a partition that has not run a round yet must not read as
	// Forever, or a fast worker would compute a bogus horizon (or declare the
	// run finished) while its neighbors still hold work. chanMin persists
	// across Runs and already covers undrained pre-Run Sends.
	pe.mu.Lock()
	for i, p := range pe.parts {
		pe.selfB[i] = Forever
		if at, ok := p.PeekTime(); ok {
			pe.selfB[i] = at
		}
	}
	pe.mu.Unlock()
	if w == 1 {
		pe.worker(0, 1, deadline)
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for wi := 0; wi < w; wi++ {
			wi := wi
			go func() {
				defer wg.Done()
				pe.worker(wi, w, deadline)
			}()
		}
		wg.Wait()
	}
	if deadline != Forever {
		for _, p := range pe.parts {
			if p.now < deadline {
				p.now = deadline
			}
		}
	}
}

// Drain runs until no events remain anywhere.
func (pe *PartitionedEngine) Drain() { pe.Run(Forever) }

// worker owns partitions {i : i % workers == wi} and loops rounds over them
// until the global termination flag is raised.
func (pe *PartitionedEngine) worker(wi, workers int, deadline Time) {
	idle := 0
	for {
		if pe.done.Load() {
			return
		}
		progress := false
		for p := wi; p < len(pe.parts); p += workers {
			if pe.round(p, deadline) {
				progress = true
			}
			if pe.done.Load() {
				return
			}
		}
		if progress {
			idle = 0
			continue
		}
		// No runnable partition: the horizon is owned by someone else's
		// partitions. Yield, then back off to a short sleep so a stalled
		// co-worker doesn't burn the core it needs.
		idle++
		if idle < 16 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// round performs one conservative round on partition p: drain arrivals into
// the local heap, publish the floor, compute the horizon, fire strictly
// below it. Reports whether any event fired.
func (pe *PartitionedEngine) round(p int, deadline Time) bool {
	if pe.pacer != nil {
		pe.pacer(p)
	}
	eng := pe.parts[p]
	pe.mu.Lock()
	// Drain every inbound channel. Insert order is irrelevant: the heap
	// comparator (time, src, seq) is the merge rule, so arrivals interleave
	// with local events identically no matter when the drain happened.
	for src := range pe.chans {
		ch := pe.chans[src][p]
		if len(ch.msgs) == 0 {
			continue
		}
		for _, m := range ch.msgs {
			at := m.at
			if at < eng.now {
				pe.skew = append(pe.skew, SkewViolation{
					Src: src, Dst: p, At: at, Bound: eng.now, Kind: "arrival-behind-clock",
				})
				at = eng.now // keep the run alive; the checker reports the breach
			}
			eng.scheduleArrival(at, int32(src), m.seq, m.ev)
		}
		ch.msgs = ch.msgs[:0]
	}
	pe.chanMin[p] = Forever
	floor := Forever
	if at, ok := eng.PeekTime(); ok {
		floor = at
	}
	pe.selfB[p] = floor
	// GlobalMin over floors and undrained arrivals everywhere.
	gm := Forever
	for i := range pe.parts {
		if pe.selfB[i] < gm {
			gm = pe.selfB[i]
		}
		if pe.chanMin[i] < gm {
			gm = pe.chanMin[i]
		}
	}
	// gm == Forever means nothing is pending anywhere — done even when the
	// deadline itself is Forever (Drain).
	if gm == Forever || gm > deadline {
		pe.done.Store(true)
		pe.mu.Unlock()
		return false
	}
	horizon := Forever
	if gm <= Forever-Time(pe.lookahead) {
		horizon = gm.Add(pe.lookahead)
	}
	if deadline != Forever && horizon > deadline {
		horizon = deadline + 1 // fire events at the deadline itself
	}
	runnable := floor < horizon
	pe.mu.Unlock()
	if !runnable {
		return false
	}
	n := eng.runBefore(horizon)
	pe.mu.Lock()
	// Republish the floor: everything below the horizon fired, so the floor
	// only moved up — GlobalMin stays monotone.
	pe.selfB[p] = Forever
	if at, ok := eng.PeekTime(); ok {
		pe.selfB[p] = at
	}
	pe.mu.Unlock()
	return n > 0
}
