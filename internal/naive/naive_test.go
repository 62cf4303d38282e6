package naive

import (
	"bytes"
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

func testGroup(t *testing.T, n int, cfg Config) (*sim.Engine, *cluster.Cluster, *Group) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     n + 1,
		StoreSize: 1 << 20,
		Fabric:    fabric.Config{JitterFrac: -1},
	})
	return eng, cl, New(cl, cfg)
}

func run(t *testing.T, eng *sim.Engine, g *Group, done *bool) {
	t.Helper()
	ok := eng.RunUntil(func() bool { return *done || g.Failed() != nil }, eng.Now().Add(10*sim.Second))
	if g.Failed() != nil {
		t.Fatalf("group failed: %v", g.Failed())
	}
	if !ok {
		t.Fatalf("op did not complete by %v", eng.Now())
	}
}

func TestEventModeReplicates(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	data := []byte("naive-payload")
	cl.Client().StoreWrite(100, data)

	done := false
	g.GWrite(100, len(data), false, func(Result) { done = true })
	run(t, eng, g, &done)
	for i, rep := range cl.Replicas() {
		if got := rep.StoreBytes(100, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("replica %d: %q", i, got)
		}
	}
	if g.HandlerActivations() != 3 {
		t.Fatalf("handler activations = %d, want 3 (one per hop)", g.HandlerActivations())
	}
}

func TestPollingModeReplicates(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Polling, PinCore: true})
	defer g.Close()
	data := []byte("polled")
	cl.Client().StoreWrite(0, data)

	done := false
	g.GWrite(0, len(data), false, func(Result) { done = true })
	run(t, eng, g, &done)
	for i, rep := range cl.Replicas() {
		if got := rep.StoreBytes(0, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("replica %d: %q", i, got)
		}
	}
}

func TestDurableWriteSurvivesPowerFailure(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	data := []byte("durable-naive")
	cl.Client().StoreWrite(0, data)
	done := false
	g.GWrite(0, len(data), true, func(Result) { done = true })
	run(t, eng, g, &done)
	for i, rep := range cl.Replicas() {
		rep.Dev.PowerFail()
		if got := rep.StoreBytes(0, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("replica %d lost durable write: %q", i, got)
		}
	}
}

func TestGCASMatchesSemantics(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	var res Result
	done := false
	g.GCAS(64, 0, 9, 0b101, func(r Result) {
		res = r
		res.CASOld = append([]uint64(nil), r.CASOld...) // valid only until done returns
		done = true
	})
	run(t, eng, g, &done)
	if res.CASOld[0] != 0 || res.CASOld[2] != 0 {
		t.Fatalf("results %v", res.CASOld)
	}
	if res.CASOld[1] != ^uint64(0) {
		t.Fatalf("skipped replica result %x", res.CASOld[1])
	}
	reps := cl.Replicas()
	if v := le(reps[0].StoreBytes(64, 8)); v != 9 {
		t.Fatalf("replica 0 = %d", v)
	}
	if v := le(reps[1].StoreBytes(64, 8)); v != 0 {
		t.Fatalf("skipped replica mutated: %d", v)
	}
}

func TestGMemcpyAndFlush(t *testing.T) {
	eng, cl, g := testGroup(t, 2, Config{Mode: Event})
	defer g.Close()
	data := []byte("copy-source")
	cl.Client().StoreWrite(0, data)
	done := false
	g.GWrite(0, len(data), false, func(Result) { done = true })
	run(t, eng, g, &done)

	done = false
	g.GMemcpy(4096, 0, len(data), true, func(Result) { done = true })
	run(t, eng, g, &done)
	for i, rep := range cl.Replicas() {
		if got := rep.StoreBytes(4096, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("replica %d memcpy: %q", i, got)
		}
		rep.Dev.PowerFail()
		if got := rep.StoreBytes(4096, len(data)); !bytes.Equal(got, data) {
			t.Fatalf("replica %d durable memcpy lost: %q", i, got)
		}
	}

	done = false
	g.GFlush(func(Result) { done = true })
	run(t, eng, g, &done)
}

func TestPipelinedOps(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Event, MaxInflight: 16})
	defer g.Close()
	cl.Client().StoreWrite(0, bytes.Repeat([]byte("p"), 128))
	const ops = 300
	completed := 0
	for i := 0; i < ops; i++ {
		g.GWrite(0, 128, false, func(r Result) {
			if r.Err == nil {
				completed++
			}
		})
	}
	eng.RunUntil(func() bool { return completed >= ops || g.Failed() != nil }, eng.Now().Add(10*sim.Second))
	if g.Failed() != nil || completed != ops {
		t.Fatalf("completed=%d failed=%v", completed, g.Failed())
	}
}

func TestReplicaCPUIsOnCriticalPath(t *testing.T) {
	// The defining contrast with HyperLoop: naive replication burns replica
	// CPU per op.
	eng, cl, g := testGroup(t, 3, Config{Mode: Event})
	defer g.Close()
	cl.Client().StoreWrite(0, bytes.Repeat([]byte("c"), 256))
	for _, rep := range cl.Replicas() {
		rep.Host.ResetAccounting()
	}
	const ops = 100
	completed := 0
	var issue func()
	issue = func() {
		g.GWrite(0, 256, false, func(Result) {
			completed++
			if completed < ops {
				issue()
			}
		})
	}
	issue()
	eng.RunUntil(func() bool { return completed >= ops || g.Failed() != nil }, eng.Now().Add(10*sim.Second))
	if g.Failed() != nil {
		t.Fatal(g.Failed())
	}
	if g.HandlerActivations() != 3*ops {
		t.Fatalf("handler activations = %d, want %d", g.HandlerActivations(), 3*ops)
	}
}

func TestLatencyInflatesUnderMultiTenancy(t *testing.T) {
	// Naive latency must blow up when the replica hosts are busy — the
	// paper's Figure 8 contrast.
	measure := func(tenants int) stats.Summary {
		eng, cl, g := testGroup(t, 3, Config{Mode: Event})
		defer g.Close()
		cl.Client().StoreWrite(0, bytes.Repeat([]byte("m"), 512))
		stops := make([]func(), 0, 3)
		for _, rep := range cl.Replicas() {
			// stress-ng style CPU hogs, 10:1 process-to-core co-location.
			stops = append(stops, cpusched.AddTenants(eng, rep.Host, tenants,
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork()))
		}
		defer func() {
			for _, s := range stops {
				s()
			}
		}()
		hist := stats.NewHistogram()
		count := 0
		var issue func()
		issue = func() {
			g.GWrite(0, 512, false, func(r Result) {
				hist.Record(r.Latency)
				count++
				if count < 400 {
					issue()
				}
			})
		}
		issue()
		eng.RunUntil(func() bool { return count >= 400 || g.Failed() != nil }, eng.Now().Add(60*sim.Second))
		if g.Failed() != nil {
			t.Fatal(g.Failed())
		}
		return hist.Summarize()
	}
	quiet := measure(0)
	busy := measure(160)
	if quiet.P99 > 100*sim.Microsecond {
		t.Fatalf("quiet p99 %v too high", quiet.P99)
	}
	if busy.P99 < 10*quiet.P99 {
		t.Fatalf("multi-tenant p99 did not inflate: quiet %v vs busy %v", quiet.P99, busy.P99)
	}
	if busy.Mean < 2*quiet.Mean {
		t.Fatalf("multi-tenant mean did not inflate: quiet %v vs busy %v", quiet.Mean, busy.Mean)
	}
}

func TestPinnedPollingFasterThanEventUnderLoad(t *testing.T) {
	measure := func(cfg Config) sim.Duration {
		eng, cl, g := testGroup(t, 3, cfg)
		defer g.Close()
		cl.Client().StoreWrite(0, bytes.Repeat([]byte("e"), 128))
		for _, rep := range cl.Replicas() {
			cpusched.AddTenants(eng, rep.Host, 32,
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork())
		}
		hist := stats.NewHistogram()
		count := 0
		var issue func()
		issue = func() {
			g.GWrite(0, 128, false, func(r Result) {
				hist.Record(r.Latency)
				count++
				if count < 200 {
					issue()
				}
			})
		}
		issue()
		eng.RunUntil(func() bool { return count >= 200 || g.Failed() != nil }, eng.Now().Add(60*sim.Second))
		if g.Failed() != nil {
			t.Fatal(g.Failed())
		}
		return hist.Mean()
	}
	event := measure(Config{Mode: Event})
	pinned := measure(Config{Mode: Polling, PinCore: true})
	if pinned >= event {
		t.Fatalf("pinned polling (%v) not faster than event (%v) under load", pinned, event)
	}
}

func TestPollingBurnsCores(t *testing.T) {
	eng, cl, g := testGroup(t, 3, Config{Mode: Polling, PinCore: true})
	defer g.Close()
	eng.RunFor(10 * sim.Millisecond)
	for i, rep := range cl.Replicas() {
		if u := rep.Host.Utilization(); u < 1.0/16-0.01 {
			t.Fatalf("replica %d utilization %.3f: pinned poller should burn a core", i, u)
		}
	}
	_ = g
}

func le(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestPollingInboxDrainsAtNextDispatch(t *testing.T) {
	// When the (unpinned) poller is off-core, completions park in its
	// inbox and are served at its next dispatch — the contended-poller
	// behaviour behind Figure 11's Naive-Polling tail.
	eng, cl, g := testGroup(t, 2, Config{Mode: Polling, PinCore: false})
	defer g.Close()
	// Crowd each replica host so the poller is usually queued.
	for _, rep := range cl.Replicas() {
		cpusched.AddTenants(eng, rep.Host, 32, cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork())
	}
	eng.RunFor(10 * sim.Millisecond)
	cl.Client().StoreWrite(0, []byte("inbox"))
	done := false
	var lat sim.Duration
	g.GWrite(0, 5, false, func(r Result) { lat = r.Latency; done = true })
	if !eng.RunUntil(func() bool { return done || g.Failed() != nil }, eng.Now().Add(sim.Second)) {
		t.Fatalf("queued-poller op stalled (%v)", g.Failed())
	}
	// The op took at least one poller-dispatch wait (≫ wire time).
	if lat < 100*sim.Microsecond {
		t.Fatalf("latency %v too low for a queued poller", lat)
	}
	if got := cl.Replicas()[1].StoreBytes(0, 5); string(got) != "inbox" {
		t.Fatalf("data lost through inbox path: %q", got)
	}
}
