package fabric

import (
	"testing"

	"hyperloop/internal/sim"
)

var gbps = 56.0

func newNet(eng *sim.Engine) *Network {
	return New(eng, Config{JitterFrac: -1}, sim.NewRand(1)) // JitterFrac<0 → no jitter
}

func TestDelivery(t *testing.T) {
	eng := sim.NewEngine()
	var got []Message
	net := newNet(eng)
	a := net.Attach(func(m Message) { t.Fatalf("unexpected delivery to a: %+v", m) })
	b := net.Attach(func(m Message) { got = append(got, m) })
	net.Send(Message{From: a, To: b, Size: 1024, Payload: "hello"})
	eng.Drain()
	if len(got) != 1 || got[0].Payload != "hello" || got[0].From != a {
		t.Fatalf("delivery wrong: %+v", got)
	}
	if net.Delivered() != 1 {
		t.Fatalf("delivered = %d", net.Delivered())
	}
}

func TestLatencyModel(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	var at sim.Time
	b := net.Attach(func(Message) { at = eng.Now() })
	net.Send(Message{From: a, To: b, Size: 1024})
	eng.Drain()
	// (1024+64)*8 bits / 56 Gbps ≈ 155ns serialization ×2 + 1500ns prop.
	ser := sim.Duration(float64((1024+64)*8) / gbps)
	want := sim.Time(2*ser + 1500)
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestInOrderSamePair(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	var got []int
	a := net.Attach(func(Message) {})
	b := net.Attach(func(m Message) { got = append(got, m.Payload.(int)) })
	for i := 0; i < 50; i++ {
		net.Send(Message{From: a, To: b, Size: 100 + i*10, Payload: i})
	}
	eng.Drain()
	if len(got) != 50 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestEgressSerializationQueues(t *testing.T) {
	// Two large back-to-back sends from one port must be serialized: the
	// second arrives roughly one serialization time after the first.
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	var times []sim.Time
	b := net.Attach(func(Message) { times = append(times, eng.Now()) })
	net.Send(Message{From: a, To: b, Size: 64 * 1024})
	net.Send(Message{From: a, To: b, Size: 64 * 1024})
	eng.Drain()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	ser := sim.Duration(float64((64*1024+64)*8) / gbps)
	gap := times[1].Sub(times[0])
	if gap < ser {
		t.Fatalf("second message gap %v < one serialization %v", gap, ser)
	}
}

func TestBandwidthThroughput(t *testing.T) {
	// Pushing 10MB in 4KB messages should take ≈ 10MB/56Gbps.
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	n := 0
	b := net.Attach(func(Message) { n++ })
	const msgs = 2560 // 10 MB / 4 KB
	for i := 0; i < msgs; i++ {
		net.Send(Message{From: a, To: b, Size: 4096})
	}
	eng.Drain()
	if n != msgs {
		t.Fatalf("delivered %d/%d", n, msgs)
	}
	bits := float64(msgs*(4096+64)) * 8
	ideal := sim.Duration(bits / gbps)
	actual := sim.Duration(eng.Now())
	if actual < ideal || actual > ideal+ideal/10+2000 {
		t.Fatalf("10MB transfer took %v, ideal %v", actual, ideal)
	}
}

func TestCutAndHeal(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	n := 0
	b := net.Attach(func(Message) { n++ })
	net.Cut(a, b)
	net.Send(Message{From: a, To: b, Size: 10})
	eng.Drain()
	if n != 0 || net.Dropped() != 1 {
		t.Fatalf("cut link delivered: n=%d dropped=%d", n, net.Dropped())
	}
	net.Heal(a, b)
	net.Send(Message{From: a, To: b, Size: 10})
	eng.Drain()
	if n != 1 {
		t.Fatalf("healed link did not deliver")
	}
}

func TestCutDropsInFlight(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	n := 0
	b := net.Attach(func(Message) { n++ })
	net.Send(Message{From: a, To: b, Size: 10})
	net.Cut(a, b) // cut before delivery fires
	eng.Drain()
	if n != 0 {
		t.Fatal("in-flight message survived a cut")
	}
}

func TestCutBothDirections(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	got := 0
	a := net.Attach(func(Message) { got++ })
	b := net.Attach(func(Message) { got++ })
	net.CutBoth(a, b)
	net.Send(Message{From: a, To: b, Size: 1})
	net.Send(Message{From: b, To: a, Size: 1})
	eng.Drain()
	if got != 0 {
		t.Fatal("CutBoth leaked a message")
	}
	net.HealBoth(a, b)
	net.Send(Message{From: a, To: b, Size: 1})
	net.Send(Message{From: b, To: a, Size: 1})
	eng.Drain()
	if got != 2 {
		t.Fatalf("HealBoth: got %d", got)
	}
}

func TestIsolateAndRejoin(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	counts := make([]int, 3)
	var ids []NodeID
	for i := 0; i < 3; i++ {
		i := i
		ids = append(ids, net.Attach(func(Message) { counts[i]++ }))
	}
	net.Isolate(ids[1])
	net.Send(Message{From: ids[0], To: ids[1], Size: 1})
	net.Send(Message{From: ids[1], To: ids[2], Size: 1})
	net.Send(Message{From: ids[0], To: ids[2], Size: 1})
	eng.Drain()
	if counts[1] != 0 || counts[2] != 1 {
		t.Fatalf("isolate: counts=%v", counts)
	}
	net.Rejoin(ids[1])
	net.Send(Message{From: ids[0], To: ids[1], Size: 1})
	net.Send(Message{From: ids[1], To: ids[2], Size: 1})
	eng.Drain()
	if counts[1] != 1 || counts[2] != 2 {
		t.Fatalf("rejoin: counts=%v", counts)
	}
}

func TestRejoinClearsDirectedCuts(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	got := 0
	a := net.Attach(func(Message) { got++ })
	b := net.Attach(func(Message) { got++ })
	net.Cut(a, b)
	net.Rejoin(b)
	net.Send(Message{From: a, To: b, Size: 1})
	eng.Drain()
	if got != 1 {
		t.Fatal("Rejoin left a directed cut in place")
	}
}

func TestByteAccounting(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	b := net.Attach(func(Message) {})
	net.Send(Message{From: a, To: b, Size: 500})
	net.Send(Message{From: a, To: b, Size: 700})
	eng.Drain()
	if net.BytesSent(a) != 1200 || net.BytesReceived(b) != 1200 {
		t.Fatalf("accounting: sent=%d recv=%d", net.BytesSent(a), net.BytesReceived(b))
	}
	if net.BytesSent(b) != 0 || net.BytesReceived(a) != 0 {
		t.Fatal("phantom bytes on idle ports")
	}
}

func TestSendToUnknownNodePanics(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	defer func() {
		if recover() == nil {
			t.Fatal("send to unknown node did not panic")
		}
	}()
	net.Send(Message{From: a, To: 99, Size: 1})
}

func TestJitterBounded(t *testing.T) {
	eng := sim.NewEngine()
	net := New(eng, Config{JitterFrac: 0.1}, sim.NewRand(3))
	a := net.Attach(func(Message) {})
	var times []sim.Time
	b := net.Attach(func(Message) { times = append(times, eng.Now()) })
	prev := sim.Time(0)
	for i := 0; i < 100; i++ {
		net.Send(Message{From: a, To: b, Size: 0})
		eng.Drain()
		times = times[:0]
		_ = prev
	}
	// With jitter the one-way delay varies but stays within ±10% of prop
	// plus serialization of the header.
	lat := func() sim.Duration {
		e := sim.NewEngine()
		nn := New(e, Config{JitterFrac: 0.1}, sim.NewRand(4))
		x := nn.Attach(func(Message) {})
		var at sim.Time
		y := nn.Attach(func(Message) { at = e.Now() })
		nn.Send(Message{From: x, To: y, Size: 0})
		e.Drain()
		return sim.Duration(at)
	}()
	ser := sim.Duration(float64(64*8) / gbps)
	prop := 1500.0
	min := sim.Duration(prop*0.9) + 2*ser
	max := sim.Duration(prop*1.1) + 2*ser + 1
	if lat < min || lat > max {
		t.Fatalf("jittered latency %v outside [%v, %v]", lat, min, max)
	}
}

func TestConfigLookaheadBounds(t *testing.T) {
	// MinLatency must lower-bound every observed delivery delay, including
	// under jitter; Latency must match the jitter-free delivery exactly.
	cfg := Config{}
	cfg.fill()
	if got, want := cfg.MinLatency(), sim.Duration(1500*0.95); got != want {
		t.Fatalf("MinLatency = %v, want %v", got, want)
	}
	for seed := int64(1); seed <= 20; seed++ {
		e := sim.NewEngine()
		nn := New(e, Config{}, sim.NewRand(seed))
		x := nn.Attach(func(Message) {})
		var at sim.Time
		y := nn.Attach(func(Message) { at = e.Now() })
		nn.Send(Message{From: x, To: y, Size: 256})
		e.Drain()
		if sim.Duration(at) < cfg.MinLatency() {
			t.Fatalf("seed %d: delivery after %v beat MinLatency %v", seed, at, cfg.MinLatency())
		}
	}

	e := sim.NewEngine()
	nn := New(e, Config{JitterFrac: -1}, sim.NewRand(1)) // no jitter
	x := nn.Attach(func(Message) {})
	var at sim.Time
	y := nn.Attach(func(Message) { at = e.Now() })
	nn.Send(Message{From: x, To: y, Size: 1024})
	e.Drain()
	// One-way Latency covers prop + one serialization; delivery also pays
	// the egress port, so observed = Latency + one extra serialization.
	ser := sim.Duration(float64((1024+64)*8) / gbps)
	if got, want := sim.Duration(at), (Config{}).Latency(1024)+ser; got != want {
		t.Fatalf("delivery %v, Latency-based prediction %v", got, want)
	}
}

// A steady-state Send and its delivery allocate nothing: the delivery record
// comes from the network's free list and goes back when it fires.
func TestSendDeliverAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	got := 0
	a := net.Attach(func(Message) {})
	b := net.Attach(func(Message) { got++ })
	payload := &got // pointer-shaped, like an rdma packet: boxing it is free
	send := func() {
		net.Send(Message{From: a, To: b, Size: 1024, Payload: payload})
		eng.Drain()
	}
	send() // first record, first engine slot
	if n := testing.AllocsPerRun(1000, send); n != 0 {
		t.Errorf("Send+deliver allocates %v/op, want 0", n)
	}
	if got != 1002 {
		t.Fatalf("delivered %d messages", got)
	}
}

// A delivery record is poisoned when it returns to the free list, so firing
// one a second time panics instead of delivering a recycled message.
func TestReleasedDeliveryPoisoned(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	b := net.Attach(func(Message) {})
	net.Send(Message{From: a, To: b, Size: 64, Payload: "x"})
	eng.Drain()
	d := net.free
	if d == nil || d.net != nil || d.msg.Payload != nil {
		t.Fatalf("released delivery not poisoned: %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("firing a released delivery did not panic")
		}
	}()
	d.Fire()
}

// Every message is released exactly once whether it is delivered or dropped
// by a cut made while it was in flight: the free list ends up holding each
// record once.
func TestDeliveryReleasedOnceWhenCut(t *testing.T) {
	eng := sim.NewEngine()
	net := newNet(eng)
	a := net.Attach(func(Message) {})
	b := net.Attach(func(Message) {})
	for i := 0; i < 3; i++ {
		net.Send(Message{From: a, To: b, Size: 64})
	}
	net.Cut(a, b)
	eng.Drain()
	if net.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", net.Dropped())
	}
	seen := map[*delivery]bool{}
	for d := net.free; d != nil; d = d.next {
		if seen[d] {
			t.Fatal("delivery record on the free list twice")
		}
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Fatalf("free list holds %d records, want 3", len(seen))
	}
}
