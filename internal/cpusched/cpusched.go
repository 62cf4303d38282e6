// Package cpusched models a multi-tenant host CPU: a fixed set of cores, a
// FIFO round-robin run queue with time slices, per-dispatch context-switch
// cost, core pinning, and background tenant load generators.
//
// This is the substrate behind the paper's central observation (§2.2): in a
// multi-tenant storage server the replica software must wait in the run
// queue before it can take any step of a replicated transaction, and that
// wait — not the network — is what inflates the tail. Naïve-RDMA baselines
// submit their per-message handlers here; HyperLoop's datapath never touches
// this package, which is the whole point.
package cpusched

import (
	"fmt"

	"hyperloop/internal/fifo"
	"hyperloop/internal/sim"
)

// Config parameterizes a Host. Zero values are replaced by defaults that
// approximate a Linux server (CFS-like slice, µs-scale switch cost).
type Config struct {
	Cores           int          // number of cores (default 16)
	TimeSlice       sim.Duration // round-robin quantum (default 1ms)
	ContextSwitch   sim.Duration // cost charged per involuntary switch (default 3µs)
	PollGranularity sim.Duration // latency for an active busy-poller to notice work (default 200ns)

	// Wakeup placement models CFS sleeper fairness: a newly woken one-shot
	// task (an I/O completion handler) is usually placed at the head of
	// the run queue, so its wait is one core-release (~TimeSlice/cores)
	// rather than a full round behind every co-located tenant. With
	// probability WakeupDebtProb it has accumulated vruntime debt (or hits
	// throttling) and goes to the tail — the rare full-round wait that
	// forms the multi-tenant latency tail the paper measures.
	NoWakeupBonus  bool    // disable the bonus (pure FIFO) — ablation knob
	WakeupDebtProb float64 // default 0.02
	Seed           int64   // seeds the debt draw (default 1)
}

func (c *Config) fill() {
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.TimeSlice <= 0 {
		c.TimeSlice = sim.Millisecond
	}
	if c.ContextSwitch <= 0 {
		c.ContextSwitch = 3 * sim.Microsecond
	}
	if c.PollGranularity <= 0 {
		c.PollGranularity = 200 * sim.Nanosecond
	}
	if c.WakeupDebtProb <= 0 {
		c.WakeupDebtProb = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Task is a schedulable entity. One-shot tasks (Submit) run until their
// demand is consumed, then invoke their completion callback. Loop tasks
// (StartLoop) are always runnable and receive an onRun callback at each
// dispatch — they model tenant processes and busy-pollers.
//
// One-shot tasks are host-owned records: Submit takes one from the host's
// free list and the host takes it back once done has returned (or the task
// was stopped mid-service), so nothing outside this package may hold one.
type Task struct {
	name        string
	host        *Host
	id          uint64 // unique per Submit/StartLoop; a recycled record gets a new one
	released    bool   // on the free list: dispatching it is a lifetime bug
	remaining   sim.Duration
	done        func()
	loop        bool
	onRun       func()
	pinned      bool
	pinCore     *coreState
	stopped     bool
	queued      bool
	woken       bool // first dispatch gets wakeup placement
	debt        bool // first dispatch pays vruntime debt (random placement)
	wokenQueued bool // currently queued with wakeup placement
	active      bool // currently occupying a core
	enqueued    sim.Time
}

// Name returns the task's label.
func (t *Task) Name() string { return t.name }

// Active reports whether the task currently occupies a core. A pinned task
// is always active.
func (t *Task) Active() bool { return t.pinned || t.active }

// Stop removes a loop task from future scheduling. If it is currently on a
// core it finishes its slice; a pinned task releases its core immediately.
func (t *Task) Stop() {
	t.stopped = true
	if t.pinned {
		t.pinned = false
		t.host.pinnedCores--
		if c := t.pinCore; c != nil && c.busy {
			c.busySum += t.host.eng.Now().Sub(c.busyFrom)
			c.busy = false
		}
		t.pinCore = nil
		t.host.dispatch()
	}
}

// coreState is one core. A busy core has exactly one slice outstanding, so
// the core itself is the sim.Event that ends it (and, through the coreRun
// view, the event that runs a loop task's body): a time slice allocates
// nothing.
type coreState struct {
	host     *Host
	busy     bool
	task     *Task        // occupant of the current slice (meaningful while busy)
	slice    sim.Duration // service the current slice grants task
	lastID   uint64       // id of the last task dispatched here: a repeat pays no switch
	busySum  sim.Duration // cumulative busy time
	busyFrom sim.Time     // when current busy period started
}

// Fire ends the core's current slice.
func (c *coreState) Fire() { c.host.sliceDone(c) }

// coreRun is the core viewed as the "loop body runs" event of its current
// slice. It fires after the switch cost and strictly before the slice ends,
// so c.task is still the task the slice was granted to.
type coreRun coreState

func (c *coreRun) Fire() {
	if t := c.task; !t.stopped {
		t.onRun()
	}
}

// Host is a simulated multi-core machine.
type Host struct {
	eng  *sim.Engine
	cfg  Config
	r    *sim.Rand
	runq fifo.Queue[*Task]
	// free holds finished one-shot task records for Submit to reuse; nextID
	// numbers tasks so a recycled record never looks like a core's last task.
	free   []*Task
	nextID uint64
	// cores[0:len-pinnedCores] participate in general scheduling.
	cores       []*coreState
	pinnedCores int

	contextSwitches uint64
	dispatches      uint64
	accountFrom     sim.Time
	queueWait       sim.Duration // cumulative run-queue wait
	queueWaitN      uint64
}

// NewHost creates a Host driven by eng.
func NewHost(eng *sim.Engine, cfg Config) *Host {
	cfg.fill()
	h := &Host{eng: eng, cfg: cfg, r: sim.NewRand(cfg.Seed)}
	h.cores = make([]*coreState, cfg.Cores)
	for i := range h.cores {
		h.cores[i] = &coreState{host: h}
	}
	return h
}

// Cores returns the total number of cores, including pinned ones.
func (h *Host) Cores() int { return len(h.cores) }

// Config returns the host's effective configuration.
func (h *Host) Config() Config { return h.cfg }

// ContextSwitches returns the number of involuntary context switches since
// the last ResetAccounting.
func (h *Host) ContextSwitches() uint64 { return h.contextSwitches }

// RunQueueLen returns the number of tasks waiting (not running).
func (h *Host) RunQueueLen() int { return h.runq.Len() }

// MeanQueueWait returns the average run-queue wait per dispatch.
func (h *Host) MeanQueueWait() sim.Duration {
	if h.queueWaitN == 0 {
		return 0
	}
	return h.queueWait / sim.Duration(h.queueWaitN)
}

// Utilization returns the fraction of total core time spent busy since the
// last ResetAccounting. Pinned cores count as fully busy.
func (h *Host) Utilization() float64 {
	window := h.eng.Now().Sub(h.accountFrom)
	if window <= 0 {
		return 0
	}
	var busy sim.Duration
	for _, c := range h.cores {
		busy += c.busySum
		if c.busy {
			busy += h.eng.Now().Sub(c.busyFrom)
		}
	}
	return float64(busy) / (float64(window) * float64(len(h.cores)))
}

// CrashReset models the machine losing its OS state (crash or hard reboot):
// every queued and running task is stopped — completion callbacks never
// fire, loop tasks are not requeued — and the run queue is discarded.
// In-flight slice timers drain harmlessly. Pinned tasks are NOT touched
// (their owners hold handles and must Stop them explicitly). Whatever the
// node should run after reboot must be resubmitted by the application.
func (h *Host) CrashReset() {
	for i := 0; i < h.runq.Len(); i++ {
		t := h.runq.At(i)
		t.stopped = true
		t.queued = false
	}
	h.runq.Clear()
	for _, c := range h.schedulableCores() {
		if c.busy && c.task != nil {
			c.task.stopped = true
		}
	}
}

// ResetAccounting zeroes context-switch and utilization counters; call at
// the start of a measurement window.
func (h *Host) ResetAccounting() {
	h.contextSwitches = 0
	h.dispatches = 0
	h.queueWait = 0
	h.queueWaitN = 0
	h.accountFrom = h.eng.Now()
	for _, c := range h.cores {
		c.busySum = 0
		if c.busy {
			c.busyFrom = h.eng.Now()
		}
	}
}

// newTask returns a zeroed task record — a recycled one when the free list
// has any — with a fresh id.
func (h *Host) newTask() *Task {
	h.nextID++
	n := len(h.free)
	if n == 0 {
		return &Task{host: h, id: h.nextID}
	}
	t := h.free[n-1]
	h.free = h.free[:n-1]
	*t = Task{host: h, id: h.nextID}
	return t
}

// Submit enqueues a one-shot task needing demand CPU time; done fires when
// the demand has been served. The task record is the host's: it is recycled
// after done returns, which is why Submit hands out no handle.
func (h *Host) Submit(name string, demand sim.Duration, done func()) {
	if demand < 0 {
		demand = 0
	}
	t := h.newTask()
	t.name, t.remaining, t.done = name, demand, done
	if !h.cfg.NoWakeupBonus {
		if h.r.Float64() >= h.cfg.WakeupDebtProb {
			t.woken = true
		} else {
			t.debt = true
		}
	}
	h.enqueue(t)
}

// release returns a finished one-shot task to the free list, poisoned: a
// released record that is dispatched or completes again panics.
func (h *Host) release(t *Task) {
	t.released = true
	t.done = nil
	h.free = append(h.free, t)
}

// StartLoop registers an always-runnable task; onRun is invoked at each
// dispatch (once per slice while it holds a core). Models tenant processes
// and software busy-pollers.
func (h *Host) StartLoop(name string, onRun func()) *Task {
	t := h.newTask()
	t.name, t.loop, t.onRun = name, true, onRun
	h.enqueue(t)
	return t
}

// Pin reserves a dedicated core for a busy-polling task, bypassing the run
// queue entirely (the paper's "core-pinning" baseline). It fails (returns
// nil) if no core can be reserved. The pinned core is accounted 100% busy.
func (h *Host) Pin(name string) *Task {
	if h.pinnedCores >= len(h.cores) {
		return nil
	}
	// Claim an idle core; if all are busy, claim the highest-indexed one
	// logically (its current occupant finishes, then the core stays out of
	// the general pool because schedulable() shrinks).
	h.pinnedCores++
	t := h.newTask()
	t.name, t.loop, t.pinned = name, true, true
	// Mark the reserved core busy for accounting as long as the pin holds.
	c := h.cores[len(h.cores)-h.pinnedCores]
	t.pinCore = c
	if !c.busy {
		c.busy = true
		c.busyFrom = h.eng.Now()
	}
	return t
}

// PollDelay returns the latency for an active poller to notice new work.
func (h *Host) PollDelay() sim.Duration { return h.cfg.PollGranularity }

func (h *Host) schedulableCores() []*coreState {
	return h.cores[:len(h.cores)-h.pinnedCores]
}

func (h *Host) enqueue(t *Task) {
	if t.queued || t.stopped {
		return
	}
	t.queued = true
	t.enqueued = h.eng.Now()
	switch {
	case t.woken:
		// Wakeup placement: ahead of runnable tenants, behind any other
		// woken tasks already queued.
		t.woken = false
		i := 0
		for i < h.runq.Len() && h.runq.At(i).wokenQueued {
			i++
		}
		t.wokenQueued = true
		h.runq.Insert(i, t)
	case t.debt:
		// Vruntime debt: somewhere in the pack, a partial-round wait.
		t.debt = false
		i := 0
		if n := h.runq.Len(); n > 0 {
			i = h.r.Intn(n + 1)
		}
		h.runq.Insert(i, t)
	default:
		h.runq.Push(t)
	}
	h.dispatch()
}

// dispatch assigns queued tasks to idle cores.
func (h *Host) dispatch() {
	for _, c := range h.schedulableCores() {
		if h.runq.Len() == 0 {
			return
		}
		if c.busy {
			continue
		}
		t := h.runq.Pop()
		t.queued = false
		t.wokenQueued = false
		h.run(c, t)
	}
}

// run executes one scheduling quantum of t on core c.
func (h *Host) run(c *coreState, t *Task) {
	if t.released {
		panic("cpusched: released task dispatched")
	}
	if t.stopped {
		h.dispatch()
		return
	}
	var overhead sim.Duration
	if c.lastID != t.id {
		overhead = h.cfg.ContextSwitch
		h.contextSwitches++
	}
	h.dispatches++
	h.queueWait += h.eng.Now().Sub(t.enqueued)
	h.queueWaitN++

	c.busy = true
	c.busyFrom = h.eng.Now()
	c.task, c.lastID = t, t.id
	t.active = true

	slice := h.cfg.TimeSlice
	if !t.loop && t.remaining < slice {
		slice = t.remaining
	}
	c.slice = slice
	h.eng.ScheduleEvent(overhead+slice, c)

	if t.loop && t.onRun != nil {
		// The loop body observes the world once the switch cost is paid.
		h.eng.ScheduleEvent(overhead, (*coreRun)(c))
	}
}

func (h *Host) sliceDone(c *coreState) {
	t := c.task
	if t.released {
		panic("cpusched: slice ended for a released task")
	}
	c.busySum += h.eng.Now().Sub(c.busyFrom)
	c.busy = false
	t.active = false

	if !t.loop {
		t.remaining -= c.slice
		switch {
		case t.stopped:
			// Stopped (or crashed) mid-service: discard without firing done.
			h.release(t)
		case t.remaining <= 0:
			if t.done != nil {
				t.done()
			}
			h.release(t)
		default:
			h.requeueOrContinue(c, t)
			return
		}
	} else if !t.stopped {
		h.requeueOrContinue(c, t)
		return
	}
	h.dispatch()
}

// requeueOrContinue implements round-robin: if others are waiting, the task
// goes to the back of the queue; otherwise it keeps the core (no switch
// cost, since lastTask is unchanged).
func (h *Host) requeueOrContinue(c *coreState, t *Task) {
	if h.runq.Len() > 0 {
		h.enqueue(t)
		return
	}
	h.run(c, t)
}

// Tenant models a background tenant process alternating idle gaps and CPU
// bursts — the paper emulates this with stress-ng (§6.1) and with 10:1
// process-to-core co-location (§6.2). Bursts are heavy-tailed (Pareto) so
// the run queue occasionally backs up by milliseconds, which is exactly the
// tail the paper measures.
type Tenant struct {
	host    *Host
	r       *sim.Rand
	idle    sim.Duration
	burst   sim.Duration
	shape   float64
	stopped bool
}

// TenantConfig shapes background load.
type TenantConfig struct {
	IdleMean  sim.Duration // mean idle gap between bursts (default 1ms)
	BurstMin  sim.Duration // Pareto minimum burst (default 200µs)
	ParetoK   float64      // Pareto shape (default 1.3; lower = heavier tail)
	AlwaysOn  bool         // if set, the tenant is an always-runnable hog
	hogHandle *Task
}

func (c *TenantConfig) fill() {
	if c.IdleMean <= 0 {
		c.IdleMean = sim.Millisecond
	}
	if c.BurstMin <= 0 {
		c.BurstMin = 200 * sim.Microsecond
	}
	if c.ParetoK <= 0 {
		c.ParetoK = 1.3
	}
}

// AddTenants starts n background tenants with the given shape and returns a
// stop function.
func AddTenants(eng *sim.Engine, h *Host, n int, cfg TenantConfig, r *sim.Rand) (stop func()) {
	cfg.fill()
	tenants := make([]*Tenant, 0, n)
	var hogs []*Task
	halted := false
	for i := 0; i < n; i++ {
		if cfg.AlwaysOn {
			// Stagger starts across one time slice so hog slice boundaries
			// desynchronize, as they would on a real machine; otherwise
			// every core releases in lockstep and wait times collapse to a
			// single deterministic value.
			name := fmt.Sprintf("hog-%d", i)
			stagger := sim.Duration(r.Int63n(int64(h.cfg.TimeSlice)))
			eng.Schedule(stagger, func() {
				if halted {
					return
				}
				hogs = append(hogs, h.StartLoop(name, nil))
			})
			continue
		}
		t := &Tenant{
			host:  h,
			r:     r.Fork(),
			idle:  cfg.IdleMean,
			burst: cfg.BurstMin,
			shape: cfg.ParetoK,
		}
		tenants = append(tenants, t)
		t.scheduleNext(eng, i)
	}
	return func() {
		halted = true
		for _, t := range tenants {
			t.stopped = true
		}
		for _, hog := range hogs {
			hog.Stop()
		}
	}
}

func (t *Tenant) scheduleNext(eng *sim.Engine, id int) {
	gap := t.r.Exp(t.idle)
	eng.Schedule(gap, func() {
		if t.stopped {
			return
		}
		demand := t.r.Pareto(t.burst, t.shape)
		t.host.Submit(fmt.Sprintf("tenant-%d", id), demand, func() {
			t.scheduleNext(eng, id)
		})
	})
}
