package load

import (
	"errors"

	"hyperloop/internal/fifo"
	"hyperloop/internal/qos"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// AdmissionConfig tunes one group leader's admission controller.
type AdmissionConfig struct {
	// Enabled guards the whole policy. Disabled, every arrival joins an
	// unbounded queue and no throttle applies — the hidden-queue baseline
	// whose open-loop latency explodes past saturation.
	Enabled bool
	// QueueDepth bounds the admission queue; an arrival that finds it full
	// is shed with a counted verdict (default 256).
	QueueDepth int
	// MaxInflight caps ops handed to the data plane at once (default 64).
	MaxInflight int
	// DispatchBatch ops leave the queue in one drain event, reaching the
	// group leader in the same virtual instant — the back-to-back run the
	// doorbell-coalescing WQE fusion path needs (default 8).
	DispatchBatch int
	// DispatchEvery is the drain cadence: the leader aggregates requests for
	// this long before posting the next batch. It is the classic doorbell-
	// moderation trade — a fixed small latency add at low load buys one MMIO
	// ring per batch under high load (default 1µs).
	DispatchEvery sim.Duration
	// RetryDelay pauses dispatch after WAL-full backpressure: the ring needs
	// executor progress, which hammering cannot accelerate (default 2µs).
	RetryDelay sim.Duration
	// PerTenantQueues splits the admission FIFO into one queue per tenant
	// class, drained round-robin, so a bursting tenant cannot occupy the
	// whole shared queue ahead of everyone else. The depth bound stays
	// global. Off, the single shared FIFO is the legacy policy.
	PerTenantQueues bool
}

func (c *AdmissionConfig) fill() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.DispatchBatch <= 0 {
		c.DispatchBatch = 8
	}
	if c.DispatchEvery <= 0 {
		c.DispatchEvery = sim.Microsecond
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 2 * sim.Microsecond
	}
}

// Verdicts counts every admission outcome. The controller's contract is
// that no arrival ever vanishes: Arrivals == Admitted + ShedQueueFull +
// ShedThrottled, and Admitted == Acked + Failed + Unserved once a run is
// cut off. Backpressure counts WAL-full bounces, which re-queue the op
// rather than ending it, so it is a pressure signal, not a terminal state.
type Verdicts struct {
	Arrivals      uint64
	Admitted      uint64
	ShedQueueFull uint64
	ShedThrottled uint64
	Backpressure  uint64
	Acked         uint64
	Failed        uint64
	Unserved      uint64
}

// Add accumulates other into v (merging per-group verdicts in group order).
func (v *Verdicts) Add(o Verdicts) {
	v.Arrivals += o.Arrivals
	v.Admitted += o.Admitted
	v.ShedQueueFull += o.ShedQueueFull
	v.ShedThrottled += o.ShedThrottled
	v.Backpressure += o.Backpressure
	v.Acked += o.Acked
	v.Failed += o.Failed
	v.Unserved += o.Unserved
}

// newBucket builds a class's qos.Bucket with the legacy default burst:
// a millisecond of budget, floored at 8 ops. A class with RatePerSec 0 is
// unthrottled — its bucket exists only so SetRate can impose a contract
// later.
func newBucket(class TenantClass) qos.Bucket {
	burst := class.Burst
	if burst <= 0 {
		burst = class.RatePerSec / 1000
		if burst < 8 {
			burst = 8
		}
	}
	return qos.NewBucket(class.RatePerSec, burst)
}

// Op is one admitted put. Records are pooled per Admission: the *Op handed
// to onAck is valid only until onAck returns.
type Op struct {
	key     string
	val     []byte
	class   int
	arrived sim.Time
	// done is the op's data-plane completion, bound once when the record is
	// created and handed to put on every reuse.
	done     func(error)
	released bool
}

// Admission is one group leader's admission controller: per-tenant token
// buckets, a bounded FIFO, and a batching dispatcher that releases up to
// DispatchBatch ops per DispatchEvery tick into the data plane — all ops of
// a batch submitted in the same virtual instant, which is exactly the run
// the core's WQE-chain fusion coalesces behind one doorbell.
type Admission struct {
	eng *sim.Engine
	cfg AdmissionConfig

	// put hands one op to the data plane; the controller owns the window
	// accounting around it.
	put func(key string, val []byte, done func(error))
	// onAck observes terminal completions (latency recording lives with the
	// driver, not the controller).
	onAck func(o *Op, err error)

	buckets  []qos.Bucket
	queue    fifo.Queue[*Op]
	queues   []fifo.Queue[*Op] // per-class FIFOs when cfg.PerTenantQueues
	rr       int               // next class the round-robin drain visits
	retry    []*Op             // WAL-bounced ops, a stack drained before the queue
	inflight int
	armed    bool
	paused   bool

	free []*Op // released records, reused by Offer
	// drainStep and resumeStep are the dispatch tick and the end of a
	// backpressure pause, bound once so scheduling them costs nothing.
	drainStep, resumeStep func()

	// qs, when set, mirrors per-tenant verdicts into metric series for the
	// QoS controller to observe. Writes are observe-only: they never
	// schedule events or alter admission decisions.
	qs *qos.RegistrySource

	v         Verdicts
	queuePeak int
	// per-class verdict slices, indexed like buckets
	classArrivals  []uint64
	classAdmitted  []uint64
	classThrottled []uint64
	classAcked     []uint64
}

// NewAdmission builds a controller for one group over the given tenant
// classes. put submits to the data plane; onAck fires once per admitted op
// at its terminal completion (may be nil) and must not keep the *Op.
func NewAdmission(eng *sim.Engine, cfg AdmissionConfig, classes []TenantClass,
	put func(key string, val []byte, done func(error)), onAck func(o *Op, err error)) *Admission {
	cfg.fill()
	if len(classes) == 0 {
		classes = DefaultTenants
	}
	a := &Admission{
		eng:            eng,
		cfg:            cfg,
		put:            put,
		onAck:          onAck,
		classArrivals:  make([]uint64, len(classes)),
		classAdmitted:  make([]uint64, len(classes)),
		classThrottled: make([]uint64, len(classes)),
		classAcked:     make([]uint64, len(classes)),
	}
	for _, cl := range classes {
		a.buckets = append(a.buckets, newBucket(cl))
	}
	if cfg.PerTenantQueues {
		a.queues = make([]fifo.Queue[*Op], len(classes))
	}
	a.drainStep = a.drain
	a.resumeStep = func() {
		a.paused = false
		a.arm()
	}
	return a
}

// InstrumentQoS mirrors this controller's per-tenant verdicts and ack
// latencies into src's metric series (one series per class, same indexing)
// so a qos.Controller can observe the group. Set before offering load.
func (a *Admission) InstrumentQoS(src *qos.RegistrySource) { a.qs = src }

// SetRate retunes class's token bucket at the engine's current instant —
// the QoS controller's actuation path for funded rate raises. Settling
// happens inside the bucket, so accrual at the old rate is never lost.
func (a *Admission) SetRate(class int, rate float64) {
	a.buckets[class].SetRate(a.eng.Now(), rate)
}

// Rate returns class's current bucket refill rate (0 = unthrottled).
func (a *Admission) Rate(class int) float64 { return a.buckets[class].Rate() }

// Credits returns class's burst credit balance right now.
func (a *Admission) Credits(class int) float64 {
	return a.buckets[class].Credits(a.eng.Now())
}

// Verdicts returns the verdict counters so far.
func (a *Admission) Verdicts() Verdicts { return a.v }

// QueuePeak returns the deepest the queue ever got.
func (a *Admission) QueuePeak() int { return a.queuePeak }

// queued returns ops sitting in the FIFO(s), whichever queue policy runs.
func (a *Admission) queued() int {
	if a.cfg.PerTenantQueues {
		n := 0
		for c := range a.queues {
			n += a.queues[c].Len()
		}
		return n
	}
	return a.queue.Len()
}

// Pending returns ops admitted but not yet terminal: queued, bounced, or in
// the data plane.
func (a *Admission) Pending() int {
	return a.queued() + len(a.retry) + a.inflight
}

// ClassStats returns per-class (arrivals, admitted, throttled, acked)
// counters.
func (a *Admission) ClassStats(class int) (arrivals, admitted, throttled, acked uint64) {
	return a.classArrivals[class], a.classAdmitted[class], a.classThrottled[class], a.classAcked[class]
}

// Offer presents one arrival. The verdict is immediate: throttled, shed at
// the full queue, or admitted (queued for dispatch).
func (a *Admission) Offer(key string, val []byte, class int) {
	a.v.Arrivals++
	a.classArrivals[class]++
	if a.qs != nil {
		a.qs.Series(class).Arrivals.Inc()
	}
	if a.cfg.Enabled {
		// Rate 0 is unthrottled by contract; a bucket only gates once a
		// contract (initial or SetRate-imposed) gives it a refill rate.
		if b := &a.buckets[class]; b.Rate() > 0 && !b.Take(a.eng.Now()) {
			a.v.ShedThrottled++
			a.classThrottled[class]++
			if a.qs != nil {
				a.qs.Series(class).Throttled.Inc()
			}
			return
		}
		if a.queued()+len(a.retry) >= a.cfg.QueueDepth {
			a.v.ShedQueueFull++
			return
		}
	}
	a.v.Admitted++
	a.classAdmitted[class]++
	if a.qs != nil {
		a.qs.Series(class).Admitted.Inc()
	}
	o := a.newOp()
	o.key, o.val, o.class, o.arrived = key, val, class, a.eng.Now()
	if a.cfg.PerTenantQueues {
		a.queues[class].Push(o)
	} else {
		a.queue.Push(o)
	}
	if d := a.Pending() - a.inflight; d > a.queuePeak {
		a.queuePeak = d
	}
	a.arm()
}

// arm schedules the next drain tick if one isn't already pending and there
// is both work and window.
func (a *Admission) arm() {
	if a.armed || a.paused {
		return
	}
	if a.inflight >= a.cfg.MaxInflight || a.queued()+len(a.retry) == 0 {
		return
	}
	a.armed = true
	a.eng.Schedule(a.cfg.DispatchEvery, a.drainStep)
}

// next pops the op to dispatch: WAL-bounced ops first, newest-bounced first
// (retry is a stack, and its pop order is part of the modeled schedule),
// then the FIFO — or, with per-tenant queues, the next non-empty class in
// round-robin order, so every class's head-of-line op competes equally for
// dispatch slots.
func (a *Admission) next() *Op {
	if n := len(a.retry); n > 0 {
		o := a.retry[n-1]
		a.retry = a.retry[:n-1]
		return o
	}
	if a.cfg.PerTenantQueues {
		for i := 0; i < len(a.queues); i++ {
			c := (a.rr + i) % len(a.queues)
			if a.queues[c].Len() == 0 {
				continue
			}
			a.rr = (c + 1) % len(a.queues)
			return a.queues[c].Pop()
		}
		return nil
	}
	if a.queue.Len() > 0 {
		return a.queue.Pop()
	}
	return nil
}

// drain releases one batch into the data plane — every op of the batch in
// this same virtual instant.
func (a *Admission) drain() {
	a.armed = false
	if a.paused {
		return
	}
	for n := a.cfg.DispatchBatch; n > 0 && a.inflight < a.cfg.MaxInflight; n-- {
		o := a.next()
		if o == nil {
			break
		}
		a.inflight++
		a.put(o.key, o.val, o.done)
	}
	a.arm()
}

// newOp takes a record from the free list, or builds one with its
// completion bound.
func (a *Admission) newOp() *Op {
	if n := len(a.free); n > 0 {
		o := a.free[n-1]
		a.free = a.free[:n-1]
		o.released = false
		return o
	}
	o := &Op{}
	o.done = func(err error) { a.complete(o, err) }
	return o
}

// release poisons o and returns it to the free list.
func (a *Admission) release(o *Op) {
	*o = Op{done: o.done, released: true}
	a.free = append(a.free, o)
}

// complete settles one data-plane completion. The record goes back to the
// free list once onAck has returned — unless the ring bounced it, in which
// case the same record waits on retry.
func (a *Admission) complete(o *Op, err error) {
	if o.released {
		panic("load: completion delivered to a released op")
	}
	a.inflight--
	if errors.Is(err, wal.ErrLogFull) {
		// Ring backpressure: surface it as a counted verdict, re-queue the
		// op (it was admitted — shedding it now would be a hidden hole), and
		// pause dispatch so the executor can make progress.
		a.v.Backpressure++
		if a.qs != nil {
			a.qs.Backpressure().Inc()
		}
		a.retry = append(a.retry, o)
		a.pause()
		return
	}
	if err != nil {
		a.v.Failed++
	} else {
		a.v.Acked++
		a.classAcked[o.class]++
		if a.qs != nil {
			s := a.qs.Series(o.class)
			s.Acked.Inc()
			s.Lat.Observe(a.eng.Now().Sub(o.arrived))
		}
	}
	if a.onAck != nil {
		a.onAck(o, err)
	}
	a.release(o)
	a.arm()
}

func (a *Admission) pause() {
	if a.paused {
		return
	}
	a.paused = true
	a.eng.Schedule(a.cfg.RetryDelay, a.resumeStep)
}

// CutOff counts everything still pending as unserved (end-of-run
// accounting; the identity Admitted == Acked + Failed + Unserved holds from
// here on). Call only after the engine has stopped driving this group.
func (a *Admission) CutOff() {
	a.v.Unserved += uint64(a.Pending())
}
