// Package sim provides a deterministic discrete-event simulation engine.
//
// All HyperLoop components — NICs, the network fabric, host CPU schedulers,
// NVM devices, and the storage applications — are actors driven by a single
// Engine. Virtual time is measured in nanoseconds (Time). Events scheduled
// for the same instant fire in the order they were scheduled, which makes
// every run bit-for-bit reproducible for a given RNG seed.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time, in nanoseconds. It converts directly
// from time.Duration (also nanoseconds).
type Duration int64

// Common durations, mirroring the time package for readable constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a Time later than any reachable instant; Run(Forever) drains
// the event queue completely.
const Forever Time = math.MaxInt64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Std converts a virtual duration to a time.Duration for printing.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (t Time) String() string { return time.Duration(t).String() }

func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// EventID is a generation-tagged handle to a scheduled event. The zero
// EventID is invalid and safe to Cancel (a no-op). Handles are only
// meaningful on the Engine that issued them; once the event fires or is
// canceled the handle goes stale and every Engine method treats it as a
// no-op, even after the underlying slot is reused.
type EventID struct {
	slot int32
	gen  uint32
}

// Valid reports whether the handle was ever issued by an engine (it does
// not say whether the event is still pending — see Engine.Active).
func (id EventID) Valid() bool { return id.gen != 0 }

// Event is the unit of work the engine fires. Hot-path actors (packets,
// fabric deliveries, per-queue NIC state) implement it on a value they
// already own, so scheduling them stores one interface word pair and
// allocates nothing; everything else passes a func through Schedule.
type Event interface {
	Fire()
}

// funcEvent adapts a plain func to Event. A func value is pointer-shaped, so
// boxing it in the interface does not allocate: Schedule(func()) and
// ScheduleEvent share one slot representation.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// eventSlot is one slab cell. Slots are recycled through a free list; gen
// increments on every release so stale EventIDs can never touch a reused
// slot.
type eventSlot struct {
	at      Time
	seq     uint64
	ev      Event
	src     int32 // merge-order source tag: the engine's own tag for local events, the sender's partition tag for cross-partition arrivals
	gen     uint32
	heapIdx int32 // index into Engine.heap; -1 when not queued
	next    int32 // free-list link, meaningful only while free
}

// Engine is a discrete-event simulation executive. It is not safe for
// concurrent use: the entire simulation runs on one goroutine.
//
// The pending queue is an index-based 4-ary min-heap over a slab of event
// slots: Schedule/Step allocate nothing in steady state (the slab and heap
// arrays are recycled), and comparisons read the slab directly instead of
// bouncing through container/heap interface calls.
type Engine struct {
	now      Time
	seq      uint64
	tag      int32 // this engine's own source tag (0 for standalone engines)
	slots    []eventSlot
	freeHead int32   // head of the free-slot list, -1 when empty
	heap     []int32 // slot indices ordered as a 4-ary min-heap by (at, src, seq)
	fired    uint64
	running  bool
}

// NewEngine returns an Engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{freeHead: -1}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// PeekTime returns the instant of the earliest pending event; ok is false
// when the queue is empty. It is the lower-bound primitive the partitioned
// scheduler's conservative-lookahead horizon is computed from.
func (e *Engine) PeekTime() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// less orders slot a before slot b by (time, source tag, sequence). For a
// standalone engine every event carries the same source tag, so the order
// is the historical (time, schedule sequence). In a partitioned run the
// source tag is the scheduling partition and seq is that partition's
// deterministic counter, making the cross-partition merge order a property
// of the model rather than of worker timing. seq is unique per (src), so
// this is a strict total order: any heap shape pops events in exactly one
// possible sequence, keeping runs reproducible.
func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	if sa.src != sb.src {
		return sa.src < sb.src
	}
	return sa.seq < sb.seq
}

// siftUp moves heap[i] toward the root; returns the final heap index.
func (e *Engine) siftUp(i int) int {
	si := e.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.less(si, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i]].heapIdx = int32(i)
		i = p
	}
	e.heap[i] = si
	e.slots[si].heapIdx = int32(i)
	return i
}

// siftDown moves heap[i] toward the leaves; returns the final heap index.
func (e *Engine) siftDown(i int) int {
	si := e.heap[i]
	n := len(e.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(e.heap[j], e.heap[best]) {
				best = j
			}
		}
		if !e.less(e.heap[best], si) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slots[e.heap[i]].heapIdx = int32(i)
		i = best
	}
	e.heap[i] = si
	e.slots[si].heapIdx = int32(i)
	return i
}

// release returns a slot to the free list and invalidates outstanding
// handles to it.
func (e *Engine) release(si int32) {
	s := &e.slots[si]
	s.ev = nil
	s.heapIdx = -1
	s.gen++
	if s.gen == 0 { // skip 0 on wrap: gen 0 marks the invalid zero EventID
		s.gen = 1
	}
	s.next = e.freeHead
	e.freeHead = si
}

// Schedule runs fn after delay d. A negative delay is treated as zero.
// It returns an EventID handle that can be passed to Cancel.
func (e *Engine) Schedule(d Duration, fn func()) EventID {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	return e.ScheduleEvent(d, funcEvent(fn))
}

// ScheduleEvent fires ev after delay d. A negative delay is treated as zero.
func (e *Engine) ScheduleEvent(d Duration, ev Event) EventID {
	if d < 0 {
		d = 0
	}
	return e.ScheduleEventAt(e.now.Add(d), ev)
}

// ScheduleAt runs fn at instant t. Scheduling in the past panics: in a
// deterministic simulation that is always a bug in the caller.
func (e *Engine) ScheduleAt(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	return e.ScheduleEventAt(t, funcEvent(fn))
}

// ScheduleEventAt fires ev at instant t, with ScheduleAt's rules.
func (e *Engine) ScheduleEventAt(t Time, ev Event) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if ev == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	return e.insert(t, e.tag, e.seq, ev)
}

// insert places one event into the slab and heap with an explicit merge key.
func (e *Engine) insert(t Time, src int32, seq uint64, ev Event) EventID {
	var si int32
	if e.freeHead >= 0 {
		si = e.freeHead
		e.freeHead = e.slots[si].next
	} else {
		e.slots = append(e.slots, eventSlot{gen: 1})
		si = int32(len(e.slots) - 1)
	}
	s := &e.slots[si]
	s.at, s.src, s.seq, s.ev = t, src, seq, ev
	i := len(e.heap)
	e.heap = append(e.heap, si)
	s.heapIdx = int32(i)
	e.siftUp(i)
	return EventID{slot: si, gen: s.gen}
}

// scheduleArrival inserts a cross-partition hand-off event carrying the
// sender's merge key (src partition tag, per-channel sequence). The caller —
// the partitioned scheduler's drain — guarantees t >= e.now; the local seq
// counter is untouched so local schedule order stays deterministic.
func (e *Engine) scheduleArrival(t Time, src int32, seq uint64, ev Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: arrival at %v before now %v", t, e.now))
	}
	e.insert(t, src, seq, ev)
}

// runBefore fires events strictly earlier than horizon, in (time, src, seq)
// order, and reports how many fired. Unlike Run it never advances the clock
// past the last fired event: the horizon is a conservative safety bound, not
// a barrier the simulation has reached.
func (e *Engine) runBefore(horizon Time) int {
	n := 0
	for len(e.heap) > 0 && e.slots[e.heap[0]].at < horizon {
		e.Step()
		n++
	}
	return n
}

// Cancel removes a pending event. Canceling a fired, already-canceled, or
// zero EventID is a no-op.
func (e *Engine) Cancel(id EventID) {
	if id.gen == 0 || id.slot < 0 || int(id.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[id.slot]
	if s.gen != id.gen || s.heapIdx < 0 {
		return
	}
	i := int(s.heapIdx)
	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.heap = e.heap[:last]
		e.slots[e.heap[i]].heapIdx = int32(i)
		if e.siftDown(i) == i {
			e.siftUp(i)
		}
	} else {
		e.heap = e.heap[:last]
	}
	e.release(id.slot)
}

// Active reports whether the event is still pending (scheduled, not yet
// fired or canceled).
func (e *Engine) Active(id EventID) bool {
	if id.gen == 0 || id.slot < 0 || int(id.slot) >= len(e.slots) {
		return false
	}
	s := &e.slots[id.slot]
	return s.gen == id.gen && s.heapIdx >= 0
}

// EventTime returns the instant a pending event is scheduled for; ok is
// false for fired, canceled, or zero handles.
func (e *Engine) EventTime(id EventID) (at Time, ok bool) {
	if !e.Active(id) {
		return 0, false
	}
	return e.slots[id.slot].at, true
}

// Step fires the single earliest pending event, advancing the clock to it.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	si := e.heap[0]
	s := &e.slots[si]
	at, ev := s.at, s.ev
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		e.slots[e.heap[0]].heapIdx = 0
		e.siftDown(0)
	}
	// Release before firing: the handle is already stale inside the
	// callback (as before the slab rewrite), and the event's own scheduling
	// can recycle the slot immediately.
	e.release(si)
	e.now = at
	e.fired++
	ev.Fire()
	return true
}

// Run fires events in order until the queue is empty or the next event lies
// beyond deadline. The clock is left at the last fired event (or moved to
// deadline if that is later and finite).
func (e *Engine) Run(deadline Time) {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= deadline {
		e.Step()
	}
	if deadline != Forever && e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d from the current instant.
func (e *Engine) RunFor(d Duration) { e.Run(e.now.Add(d)) }

// Drain runs the simulation until no events remain.
func (e *Engine) Drain() { e.Run(Forever) }

// RunUntil fires events until pred returns true or the queue empties or the
// hard deadline passes; it reports whether pred was satisfied. pred is
// checked after every event. On a false return the clock is advanced to the
// deadline (when finite), mirroring Run's deadline semantics, so virtual
// time never sits before an instant the engine has already given up on.
func (e *Engine) RunUntil(pred func() bool, deadline Time) bool {
	if pred() {
		return true
	}
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= deadline {
		e.Step()
		if pred() {
			return true
		}
	}
	if deadline != Forever && e.now < deadline {
		e.now = deadline
	}
	return false
}
