package cpusched

import (
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

func newHost(eng *sim.Engine, cores int) *Host {
	return NewHost(eng, Config{
		Cores:         cores,
		TimeSlice:     sim.Millisecond,
		ContextSwitch: 3 * sim.Microsecond,
	})
}

func TestIdleHostRunsImmediately(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 4)
	var doneAt sim.Time
	h.Submit("job", 10*sim.Microsecond, func() { doneAt = eng.Now() })
	eng.Drain()
	// Cold core: one context switch (3µs) + 10µs service.
	want := sim.Time(13 * sim.Microsecond)
	if doneAt != want {
		t.Fatalf("job finished at %v, want %v", doneAt, want)
	}
	if h.ContextSwitches() != 1 {
		t.Fatalf("context switches = %d, want 1", h.ContextSwitches())
	}
}

func TestParallelismAcrossCores(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 4)
	finished := 0
	for i := 0; i < 4; i++ {
		h.Submit("job", 100*sim.Microsecond, func() { finished++ })
	}
	eng.Drain()
	// All four fit on four cores concurrently.
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	if got, want := eng.Now(), sim.Time(103*sim.Microsecond); got != want {
		t.Fatalf("makespan %v, want %v (parallel)", got, want)
	}
}

func TestQueueingDelay(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	var order []string
	h.Submit("a", 100*sim.Microsecond, func() { order = append(order, "a") })
	h.Submit("b", 100*sim.Microsecond, func() { order = append(order, "b") })
	eng.Drain()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	// b waited for a: 2 switches + 200µs.
	if got, want := eng.Now(), sim.Time(206*sim.Microsecond); got != want {
		t.Fatalf("makespan %v, want %v (serialized)", got, want)
	}
}

func TestTimeSlicingRoundRobin(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	var first string
	// Two 2.5ms jobs on one core with 1ms slices interleave; the first one
	// submitted finishes first.
	h.Submit("a", 2500*sim.Microsecond, func() {
		if first == "" {
			first = "a"
		}
	})
	h.Submit("b", 2500*sim.Microsecond, func() {
		if first == "" {
			first = "b"
		}
	})
	eng.Drain()
	if first != "a" {
		t.Fatalf("first finisher = %q, want a", first)
	}
	// Round robin forces repeated switches: at least 5 (2 initial + retakes).
	if h.ContextSwitches() < 5 {
		t.Fatalf("context switches = %d, want >=5 under RR", h.ContextSwitches())
	}
}

func TestNoSwitchCostWhenAlone(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	done := false
	// 5ms job alone on the core: slices continue without extra switches.
	h.Submit("solo", 5*sim.Millisecond, func() { done = true })
	eng.Drain()
	if !done {
		t.Fatal("job did not finish")
	}
	if h.ContextSwitches() != 1 {
		t.Fatalf("context switches = %d, want 1 (no contention)", h.ContextSwitches())
	}
	if got, want := eng.Now(), sim.Time(5*sim.Millisecond+3*sim.Microsecond); got != want {
		t.Fatalf("makespan %v, want %v", got, want)
	}
}

func TestLoopTaskRunsRepeatedly(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	runs := 0
	task := h.StartLoop("poller", func() { runs++ })
	eng.RunFor(10 * sim.Millisecond)
	if runs < 9 {
		t.Fatalf("loop ran %d times in 10ms with 1ms slices, want >=9", runs)
	}
	if !task.Active() {
		t.Fatal("sole loop task should be active")
	}
	task.Stop()
	eng.RunFor(5 * sim.Millisecond)
	after := runs
	eng.RunFor(5 * sim.Millisecond)
	if runs != after {
		t.Fatal("stopped loop task kept running")
	}
}

func TestZeroDemand(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	done := false
	h.Submit("noop", 0, func() { done = true })
	eng.Drain()
	if !done {
		t.Fatal("zero-demand job did not complete")
	}
}

func TestPinReservesCore(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	p := h.Pin("poller")
	if p == nil {
		t.Fatal("pin failed with free cores")
	}
	if !p.Active() {
		t.Fatal("pinned task not active")
	}
	// Only one schedulable core remains; two jobs serialize.
	n := 0
	h.Submit("a", sim.Millisecond, func() { n++ })
	h.Submit("b", sim.Millisecond, func() { n++ })
	eng.Drain()
	if n != 2 {
		t.Fatalf("jobs finished = %d", n)
	}
	if eng.Now() < sim.Time(2*sim.Millisecond) {
		t.Fatalf("jobs did not serialize on the remaining core: %v", eng.Now())
	}
}

func TestPinExhaustion(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	if h.Pin("p1") == nil || h.Pin("p2") == nil {
		t.Fatal("pins failed")
	}
	if h.Pin("p3") != nil {
		t.Fatal("third pin on 2-core host succeeded")
	}
	// With all cores pinned, utilization is 100%.
	eng.RunFor(sim.Millisecond)
	if u := h.Utilization(); u < 0.99 {
		t.Fatalf("utilization = %.2f with all cores pinned", u)
	}
}

func TestPinStopReleasesCore(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	p := h.Pin("poller")
	if p == nil {
		t.Fatal("pin failed")
	}
	done := false
	h.Submit("job", 10*sim.Microsecond, func() { done = true })
	eng.RunFor(sim.Millisecond)
	if done {
		t.Fatal("job ran while the only core was pinned")
	}
	p.Stop()
	eng.Drain()
	if !done {
		t.Fatal("job did not run after unpin")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	// One core busy for 10ms out of a 20ms window on a 2-core host = 25%.
	h.Submit("job", 10*sim.Millisecond, func() {})
	eng.RunFor(20 * sim.Millisecond)
	u := h.Utilization()
	if u < 0.24 || u > 0.27 {
		t.Fatalf("utilization = %.3f, want ≈0.25", u)
	}
	h.ResetAccounting()
	eng.RunFor(10 * sim.Millisecond)
	if u := h.Utilization(); u > 0.01 {
		t.Fatalf("utilization after reset = %.3f, want ≈0", u)
	}
}

func TestQueueWaitGrowsWithLoad(t *testing.T) {
	mean := func(tenants int) sim.Duration {
		eng := sim.NewEngine()
		h := newHost(eng, 4)
		r := sim.NewRand(42)
		stop := AddTenants(eng, h, tenants, TenantConfig{}, r)
		defer stop()
		hist := stats.NewHistogram()
		// Probe: submit a tiny handler every 500µs and measure completion.
		var probe func()
		probe = func() {
			start := eng.Now()
			h.Submit("probe", 2*sim.Microsecond, func() {
				hist.Record(eng.Now().Sub(start))
			})
			eng.Schedule(500*sim.Microsecond, probe)
		}
		eng.Schedule(0, probe)
		eng.RunFor(2 * sim.Second)
		return hist.Mean()
	}
	light := mean(2)
	heavy := mean(40)
	if heavy <= light {
		t.Fatalf("mean handler latency did not grow with load: light=%v heavy=%v", light, heavy)
	}
	if heavy < 10*sim.Microsecond {
		t.Fatalf("heavy load latency %v suspiciously low", heavy)
	}
}

func TestTenantTailLatency(t *testing.T) {
	// Under moderate multi-tenant load (≈60-70% utilization, heavy-tailed
	// bursts), p99 of a small handler must be at least an order of
	// magnitude above the median — the paper's core observation. (At full
	// saturation the whole distribution shifts up instead; that regime is
	// exercised by TestAlwaysOnHogs.)
	eng := sim.NewEngine()
	h := newHost(eng, 8)
	r := sim.NewRand(7)
	stop := AddTenants(eng, h, 16, TenantConfig{IdleMean: 2 * sim.Millisecond}, r)
	defer stop()
	hist := stats.NewHistogram()
	var probe func()
	probe = func() {
		start := eng.Now()
		h.Submit("probe", 2*sim.Microsecond, func() {
			hist.Record(eng.Now().Sub(start))
		})
		eng.Schedule(sim.Duration(300)*sim.Microsecond, probe)
	}
	eng.Schedule(0, probe)
	eng.RunFor(5 * sim.Second)
	s := hist.Summarize()
	if s.Count < 1000 {
		t.Fatalf("too few probes: %d", s.Count)
	}
	if s.P99 < 10*s.P50 {
		t.Fatalf("tail not heavy: %v", s)
	}
}

func TestAlwaysOnHogs(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	r := sim.NewRand(9)
	stop := AddTenants(eng, h, 4, TenantConfig{AlwaysOn: true}, r)
	eng.RunFor(50 * sim.Millisecond)
	if u := h.Utilization(); u < 0.95 {
		t.Fatalf("utilization with always-on hogs = %.2f, want ≈1", u)
	}
	stop()
	// After stopping, a small job still gets through.
	done := false
	h.Submit("job", sim.Microsecond, func() { done = true })
	eng.RunFor(50 * sim.Millisecond)
	if !done {
		t.Fatal("job starved after hogs stopped")
	}
}

func TestContextSwitchesScaleWithProcesses(t *testing.T) {
	switches := func(n int) uint64 {
		eng := sim.NewEngine()
		h := newHost(eng, 4)
		r := sim.NewRand(11)
		stop := AddTenants(eng, h, n, TenantConfig{AlwaysOn: true}, r)
		defer stop()
		eng.RunFor(sim.Second)
		return h.ContextSwitches()
	}
	few := switches(4)
	many := switches(32)
	if many <= few {
		t.Fatalf("context switches did not grow with process count: %d vs %d", few, many)
	}
}

func TestMeanQueueWait(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	h.Submit("a", sim.Millisecond, func() {})
	h.Submit("b", sim.Millisecond, func() {})
	eng.Drain()
	if h.MeanQueueWait() == 0 {
		t.Fatal("queue wait not recorded under contention")
	}
}

func TestWakeupBonusShortensWaits(t *testing.T) {
	// With the bonus, a tiny handler submitted to a host saturated by hogs
	// waits roughly one core release; without it, a full round.
	wait := func(noBonus bool) sim.Duration {
		eng := sim.NewEngine()
		h := NewHost(eng, Config{Cores: 8, NoWakeupBonus: noBonus, WakeupDebtProb: 1e-9})
		stop := AddTenants(eng, h, 80, TenantConfig{AlwaysOn: true}, sim.NewRand(3))
		defer stop()
		eng.RunFor(20 * sim.Millisecond) // hogs staggered in
		var total sim.Duration
		const probes = 50
		done := 0
		var probe func()
		probe = func() {
			start := eng.Now()
			h.Submit("probe", sim.Microsecond, func() {
				total += eng.Now().Sub(start)
				done++
				if done < probes {
					eng.Schedule(200*sim.Microsecond, probe)
				}
			})
		}
		probe()
		eng.RunUntil(func() bool { return done >= probes }, eng.Now().Add(30*sim.Second))
		if done < probes {
			t.Fatalf("probes stalled at %d", done)
		}
		return total / probes
	}
	with := wait(false)
	without := wait(true)
	if without < 10*with {
		t.Fatalf("bonus effect too small: with=%v without=%v", with, without)
	}
	// Order-of-magnitude sanity: one core release ≈ slice/cores ≈ 125µs;
	// a full round ≈ (tenants/cores)×slice ≈ 10ms.
	if with > sim.Millisecond {
		t.Fatalf("bonus wait %v too large", with)
	}
	if without < 2*sim.Millisecond {
		t.Fatalf("FIFO wait %v too small", without)
	}
}

func TestDebtProbabilityRespected(t *testing.T) {
	// With WakeupDebtProb = 0.5 about half the probes pay a long wait.
	eng := sim.NewEngine()
	h := NewHost(eng, Config{Cores: 8, WakeupDebtProb: 0.5, Seed: 5})
	stop := AddTenants(eng, h, 80, TenantConfig{AlwaysOn: true}, sim.NewRand(4))
	defer stop()
	eng.RunFor(20 * sim.Millisecond)
	slow, done := 0, 0
	const probes = 200
	var probe func()
	probe = func() {
		start := eng.Now()
		h.Submit("probe", sim.Microsecond, func() {
			if eng.Now().Sub(start) > sim.Millisecond {
				slow++
			}
			done++
			if done < probes {
				eng.Schedule(100*sim.Microsecond, probe)
			}
		})
	}
	probe()
	eng.RunUntil(func() bool { return done >= probes }, eng.Now().Add(60*sim.Second))
	frac := float64(slow) / probes
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("debt fraction %.2f, want ≈0.5", frac)
	}
}

func TestCrashResetDropsQueuedAndRunning(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	ranLoop := 0
	h.StartLoop("victim-loop", func() { ranLoop++ })
	fired := false
	h.Submit("victim-oneshot", 10*sim.Millisecond, func() { fired = true })
	eng.RunFor(100 * sim.Microsecond) // let the loop occupy the core
	h.CrashReset()
	eng.RunFor(50 * sim.Millisecond)
	if fired {
		t.Fatal("one-shot completion fired after CrashReset")
	}
	if h.RunQueueLen() != 0 {
		t.Fatalf("run queue not empty after crash: %d", h.RunQueueLen())
	}
	loopRunsAtCrash := ranLoop
	eng.RunFor(10 * sim.Millisecond)
	if ranLoop != loopRunsAtCrash {
		t.Fatal("loop task kept running after CrashReset")
	}
}

func TestCrashResetThenResubmit(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	h.Submit("pre-crash", 5*sim.Millisecond, func() { t.Fatal("pre-crash task survived") })
	eng.RunFor(50 * sim.Microsecond)
	h.CrashReset()
	// The rebooted node accepts fresh work.
	done := false
	h.Submit("post-crash", sim.Microsecond, func() { done = true })
	eng.RunFor(20 * sim.Millisecond)
	if !done {
		t.Fatal("host dead after CrashReset")
	}
}

// A time slice costs no allocation: the core is its own slice event, loop
// bodies run off the same record, and a finished one-shot task's record is
// recycled by the next Submit.
func TestSliceAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 2)
	ran := 0
	h.StartLoop("hog-a", nil)
	h.StartLoop("hog-b", nil)
	h.StartLoop("poller", func() { ran++ })
	served := 0
	handler := func() { served++ }
	round := func() {
		h.Submit("handler", 10*sim.Microsecond, handler) // wakeup placement: front of the queue
		eng.RunFor(3 * sim.Millisecond)
	}
	round()
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("steady-state scheduling allocates %v times per round", n)
	}
	if ran == 0 || served != 202 {
		t.Fatalf("loop body ran %d times, %d handlers served", ran, served)
	}
}

// A recycled task record must not look like the core's previous occupant: the
// switch cost is charged per task, not per record.
func TestRecycledTaskPaysSwitch(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		h.Submit("job", 10*sim.Microsecond, func() { ends = append(ends, eng.Now()) })
		eng.Drain()
	}
	if len(h.free) != 1 {
		t.Fatalf("free list holds %d records, want the 1 being recycled", len(h.free))
	}
	for i := 1; i < len(ends); i++ {
		if d := ends[i].Sub(ends[i-1]); d != 13*sim.Microsecond {
			t.Fatalf("job %d took %v, want 13µs (switch + service)", i, d)
		}
	}
	if h.ContextSwitches() != 3 {
		t.Fatalf("context switches = %d, want 3", h.ContextSwitches())
	}
}

func TestReleasedTaskPoisoned(t *testing.T) {
	eng := sim.NewEngine()
	h := newHost(eng, 1)
	h.Submit("job", sim.Microsecond, nil)
	eng.Drain()
	defer func() {
		if recover() == nil {
			t.Fatal("dispatching a released task did not panic")
		}
	}()
	h.run(h.cores[0], h.free[0])
}
