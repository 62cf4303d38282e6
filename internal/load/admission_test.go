package load

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// fakePlane is a hand-cranked backend: completions fire only when the test
// releases them, so queue dynamics are fully controlled.
type fakePlane struct {
	eng     *sim.Engine
	latency sim.Duration
	// bounce makes the next n puts fail synchronously-with-callback as
	// WAL-full backpressure.
	bounce  int
	held    []func(error)
	hold    bool
	puts    int
	keys    []string   // dispatched keys, one per put
	batchAt []sim.Time // dispatch instants, one per put
}

func (f *fakePlane) put(key string, val []byte, done func(error)) {
	f.puts++
	f.keys = append(f.keys, key)
	f.batchAt = append(f.batchAt, f.eng.Now())
	if f.bounce > 0 {
		f.bounce--
		f.eng.Schedule(0, func() { done(wal.ErrLogFull) })
		return
	}
	if f.hold {
		f.held = append(f.held, done)
		return
	}
	f.eng.Schedule(f.latency, func() { done(nil) })
}

func (f *fakePlane) release() {
	for _, done := range f.held {
		done := done
		f.eng.Schedule(f.latency, func() { done(nil) })
	}
	f.held = nil
}

func checkIdentity(t *testing.T, a *Admission) {
	t.Helper()
	v := a.Verdicts()
	if v.Arrivals != v.Admitted+v.ShedQueueFull+v.ShedThrottled {
		t.Fatalf("identity broken: %+v", v)
	}
}

// A full queue must shed with a counted verdict — and nothing else may be
// lost: arrivals always equal admitted + shed.
func TestAdmissionShedsOnFullQueue(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, hold: true}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: true, QueueDepth: 8, MaxInflight: 2, DispatchBatch: 2,
	}, nil, fp.put, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 20; i++ {
			a.Offer("k", nil, 0)
		}
	})
	eng.RunFor(sim.Millisecond)
	v := a.Verdicts()
	// 8 queued + up to MaxInflight dispatched-but-held are admitted; the
	// rest shed. Nothing hidden.
	if v.ShedQueueFull == 0 {
		t.Fatal("no queue-full sheds despite 20 offers into depth 8")
	}
	if v.Admitted+v.ShedQueueFull != 20 {
		t.Fatalf("20 arrivals accounted as %d admitted + %d shed", v.Admitted, v.ShedQueueFull)
	}
	checkIdentity(t, a)
	fp.hold = false
	fp.latency = sim.Microsecond
	fp.release()
	eng.RunFor(sim.Second)
	if got := a.Verdicts().Acked; got != v.Admitted {
		t.Fatalf("released %d admitted ops, %d acked", v.Admitted, got)
	}
}

// A tenant over its token-bucket budget is throttled; an unthrottled tenant
// sharing the controller is not.
func TestAdmissionThrottlesPerTenant(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, latency: sim.Microsecond}
	classes := []TenantClass{
		{Name: "victim", Weight: 1},                                    // unthrottled
		{Name: "aggressor", Weight: 1, RatePerSec: 100_000, Burst: 10}, // 0.1/µs
	}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: true, QueueDepth: 4096, MaxInflight: 64, DispatchBatch: 8,
	}, classes, fp.put, nil)
	// 1000 offers per class over 1ms: aggressor budget is 10 burst + 100
	// refill, so ~890 of its offers must throttle; the victim sails.
	for i := 0; i < 1000; i++ {
		eng.Schedule(sim.Duration(i)*sim.Microsecond, func() {
			a.Offer("v", nil, 0)
			a.Offer("a", nil, 1)
		})
	}
	eng.RunFor(10 * sim.Millisecond)
	_, _, vThrottled, _ := a.ClassStats(0)
	_, aAdmitted, aThrottled, _ := a.ClassStats(1)
	if vThrottled != 0 {
		t.Fatalf("victim throttled %d times", vThrottled)
	}
	if aThrottled < 800 {
		t.Fatalf("aggressor throttled only %d of 1000", aThrottled)
	}
	if aAdmitted+aThrottled != 1000 {
		t.Fatalf("aggressor arrivals leak: %d + %d != 1000", aAdmitted, aThrottled)
	}
	checkIdentity(t, a)
}

// WAL-full backpressure must surface as a counted verdict and a re-queue —
// the op completes later, it never disappears.
func TestAdmissionBackpressureRetries(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, latency: sim.Microsecond, bounce: 5}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: true, QueueDepth: 64, MaxInflight: 4, DispatchBatch: 4,
	}, nil, fp.put, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			a.Offer("k", nil, 0)
		}
	})
	eng.RunFor(10 * sim.Millisecond)
	v := a.Verdicts()
	if v.Backpressure == 0 {
		t.Fatal("no backpressure verdicts despite 5 bounces")
	}
	if v.Acked != 8 {
		t.Fatalf("acked %d of 8 admitted ops (backpressure lost ops)", v.Acked)
	}
	checkIdentity(t, a)
}

// Disabled admission is the hidden-queue baseline: everything is admitted no
// matter how deep the backlog grows.
func TestAdmissionDisabledAdmitsAll(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, hold: true}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: false, QueueDepth: 4, MaxInflight: 2,
	}, nil, fp.put, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 500; i++ {
			a.Offer("k", nil, 0)
		}
	})
	eng.RunFor(sim.Millisecond)
	v := a.Verdicts()
	if v.Admitted != 500 || v.ShedQueueFull != 0 || v.ShedThrottled != 0 {
		t.Fatalf("disabled controller shed: %+v", v)
	}
	if a.QueuePeak() < 490 {
		t.Fatalf("queue peak %d, want the backlog visible", a.QueuePeak())
	}
}

// The dispatcher must release whole batches in one virtual instant — the
// same-instant run WQE fusion coalesces — and respect the inflight window.
func TestAdmissionDispatchesBatchesAtOneInstant(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, latency: 100 * sim.Microsecond}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: true, QueueDepth: 64, MaxInflight: 8, DispatchBatch: 4,
	}, nil, fp.put, nil)
	eng.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			a.Offer("k", nil, 0)
		}
	})
	eng.RunFor(10 * sim.Millisecond)
	if len(fp.batchAt) != 8 {
		t.Fatalf("dispatched %d of 8", len(fp.batchAt))
	}
	// First four share one instant, next four another, later one.
	if fp.batchAt[0] != fp.batchAt[3] {
		t.Fatalf("first batch not fused in time: %v vs %v", fp.batchAt[0], fp.batchAt[3])
	}
	if fp.batchAt[4] != fp.batchAt[7] {
		t.Fatalf("second batch not fused in time: %v vs %v", fp.batchAt[4], fp.batchAt[7])
	}
	if fp.batchAt[3] == fp.batchAt[4] {
		t.Fatal("batches 1 and 2 dispatched at the same instant despite DispatchEvery")
	}
}

// A WAL-bounced op keeps its record (it is not released on the re-queue
// path) and bounced ops re-dispatch newest-bounced first: retry is a stack,
// and that pop order is part of the modeled schedule.
func TestAdmissionRetriesNewestBouncedFirst(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, latency: sim.Microsecond, bounce: 3}
	a := NewAdmission(eng, AdmissionConfig{
		Enabled: true, QueueDepth: 64, MaxInflight: 3, DispatchBatch: 3,
	}, nil, fp.put, nil)
	eng.Schedule(0, func() {
		for _, k := range []string{"a", "b", "c"} {
			a.Offer(k, nil, 0)
		}
	})
	eng.RunFor(sim.Millisecond)
	if got := strings.Join(fp.keys, ""); got != "abccba" {
		t.Fatalf("dispatch order %q, want abccba", got)
	}
	if v := a.Verdicts(); v.Backpressure != 3 || v.Acked != 3 {
		t.Fatalf("verdicts %+v", v)
	}
}

// A completed op's record is poisoned on release: a second completion
// delivered to it panics instead of settling recycled state.
func TestReleasedOpPoisoned(t *testing.T) {
	eng := sim.NewEngine()
	fp := &fakePlane{eng: eng, hold: true}
	acks := 0
	a := NewAdmission(eng, AdmissionConfig{}, nil, fp.put, func(*Op, error) { acks++ })
	a.Offer("k", []byte("v"), 0)
	eng.RunFor(sim.Millisecond)
	if len(fp.held) != 1 {
		t.Fatalf("%d puts held, want 1", len(fp.held))
	}
	done := fp.held[0]
	fp.release()
	eng.RunFor(sim.Millisecond)
	if acks != 1 || a.Pending() != 0 {
		t.Fatalf("acks %d, pending %d", acks, a.Pending())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released op") {
			t.Fatalf("completing a released op: panic %v, want the poison check's", r)
		}
		if acks != 1 {
			t.Fatalf("stale completion reached onAck (%d acks)", acks)
		}
	}()
	done(nil)
}
