package shard

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/wal"
)

// An instrumented plane: every put lands in the per-shard counters and
// latency histograms, acks settle their spans, and the plane annotations
// reach the recorder. The hooks observe only, so the data path is identical
// to the uninstrumented tests around this one.
func TestPlaneInstrumentedPutsAndSpans(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.NewRegistry()
	rec := span.NewRecorder(eng)
	ready := false
	p := New(eng, planeCfg(Config{Shards: 2, Replicas: 3, Hosts: 4, Seed: 3,
		Metrics: reg, Spans: rec}), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("plane never opened")
	}
	defer p.Close()

	const keys = 24
	var ks []string
	for i := 0; i < keys; i++ {
		ks = append(ks, fmt.Sprintf("obs-key-%03d", i))
	}
	putAll(t, eng, p, ks, func(k string) []byte { return []byte("v-" + k) })

	var counted uint64
	for sid := 0; sid < p.Shards(); sid++ {
		lbl := fmt.Sprintf("s%d", sid)
		counted += reg.Counter("shard", "puts", lbl).Value()
		if reg.Counter("shard", "puts_refused", lbl).Value() != 0 {
			t.Fatalf("healthy plane refused puts on %s", lbl)
		}
	}
	if counted != keys {
		t.Fatalf("puts counted %d, want %d", counted, keys)
	}
	started, ended, dbl, _ := rec.Counts()
	if started != keys || ended != keys || dbl != 0 {
		t.Fatalf("span conservation: %d/%d dbl=%d", started, ended, dbl)
	}

	// One replica read and a plane-wide flush keep the read/flush paths in
	// the instrumented configuration too.
	var got []byte
	readDone := false
	p.GetFromReplica(ks[0], func(v []byte, err error) {
		if err != nil {
			t.Errorf("replica read: %v", err)
		}
		got, readDone = v, true
	})
	if !eng.RunUntil(func() bool { return readDone }, eng.Now().Add(sim.Second)) {
		t.Fatal("replica read stalled")
	}
	if string(got) != "v-"+ks[0] {
		t.Fatalf("replica read = %q", got)
	}
	flushed := false
	p.Flush(func(err error) {
		if err != nil {
			t.Errorf("flush: %v", err)
		}
		flushed = true
	})
	if !eng.RunUntil(func() bool { return flushed }, eng.Now().Add(sim.Second)) {
		t.Fatal("flush stalled")
	}
	if p.StaleSuppressed() != 0 || p.StaleServed() != 0 {
		t.Fatal("stale reads on a migration-free plane")
	}

	// Sampled export carries the shard series.
	reg.Sample(eng.Now())
	txt := reg.ExportText()
	for _, want := range []string{"hyperloop_shard_puts", "hyperloop_shard_epoch", "hyperloop_shard_put_latency_ns"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("export missing %s:\n%s", want, txt)
		}
	}

	// Surface accessors used by dashboards.
	if p.Shard(0).Backend() == nil || p.Shard(0).DB() == nil {
		t.Fatal("shard accessors nil")
	}
	if p.Shard(0).LatencyEWMA() <= 0 {
		t.Fatal("latency EWMA never updated")
	}
	if p.Client() == nil || len(p.Pool()) != 4 {
		t.Fatalf("pool accessors: client=%v pool=%d", p.Client(), len(p.Pool()))
	}
	if s := p.String(); !strings.Contains(s, "shards=2") {
		t.Fatalf("plane string: %q", s)
	}
	if v := p.Map.Version(); v == 0 {
		t.Fatalf("map version = %d", v)
	}
	if hs := p.Map.HostShards(len(p.Pool())); len(hs) != len(p.Pool()) {
		t.Fatalf("host shard rows: %d", len(hs))
	}
	if ms := p.Map.String(); ms == "" {
		t.Fatal("map string empty")
	}
	rc := p.RegionConfig(0)
	if rc.LogSize <= 0 || rc.DataSize <= 0 || rc.DataBase != rc.LogBase+rc.LogSize {
		t.Fatalf("region config: %+v", rc)
	}
	for h := range p.Pool() {
		if p.EpochWord(h, 0) > 1 {
			t.Fatalf("fresh shard epoch word = %d", p.EpochWord(h, 0))
		}
	}
}

// planeCfg mirrors testPlane's defaulting for configs built inline.
func planeCfg(cfg Config) Config {
	if cfg.Fabric.JitterFrac == 0 {
		cfg.Fabric.JitterFrac = -1
	}
	if cfg.Group.Depth == 0 {
		cfg.Group.Depth = 256
	}
	return cfg
}

// Ring-full backpressure on an instrumented shard: the refusal must land in
// puts_refused and settle the span instead of leaking it unended.
func TestPlaneRefusedPutCountedAndSpanSettled(t *testing.T) {
	eng := sim.NewEngine()
	reg := metrics.NewRegistry()
	rec := span.NewRecorder(eng)
	ready := false
	p := New(eng, planeCfg(Config{Shards: 1, Replicas: 3, Hosts: 3, Seed: 5,
		LogSize: 4096, CommitEvery: 1 << 30, Metrics: reg, Spans: rec}), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("plane never opened")
	}
	defer p.Close()

	refused := false
	for i := 0; i < 200 && !refused; i++ {
		_, err := p.Put(fmt.Sprintf("bp-%04d", i), []byte("vvvvvvvv"), nil)
		if err == wal.ErrLogFull {
			refused = true
		} else if err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	if !refused {
		t.Fatal("ring never filled")
	}
	if got := reg.Counter("shard", "puts_refused", "s0").Value(); got != 1 {
		t.Fatalf("puts_refused = %d", got)
	}
	eng.RunFor(sim.Second) // let in-flight acks settle their spans
	started, ended, dbl, _ := rec.Counts()
	if started != ended || dbl != 0 {
		t.Fatalf("refusal leaked spans: %d/%d dbl=%d", started, ended, dbl)
	}
}
