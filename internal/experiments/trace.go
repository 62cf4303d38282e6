package experiments

import (
	"errors"
	"flag"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

func traceFlags(fs *flag.FlagSet) {
	fs.Int("size", 256, "payload bytes")
	fs.Bool("durable", true, "interleave gFLUSH")
}

// traceScenario narrates one gWRITE through a 3-replica HyperLoop chain at
// NIC-event granularity: every WQE execution, WAIT firing, ownership stall
// and inbound message on every NIC, with virtual timestamps — §4's Figures
// 4-5 as a live timeline. After the client's initial three sends, every
// event happens on a replica NIC with no host code anywhere.
func traceScenario(e *Env) error {
	size, durable := e.Int("size"), e.Bool("durable")
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     4,
		StoreSize: 1 << 20,
		Seed:      e.Seed,
		Host:      cpusched.Config{Seed: e.Seed},
	})
	g := core.New(cl, core.Config{Depth: 16})
	defer g.Close()

	// Let setup traffic (priming, credit seeds) drain before tracing.
	eng.RunFor(sim.Millisecond)

	bridge := span.NewBridge(0)
	for i, n := range cl.Nodes {
		n.NIC.SetTracer(bridge.Tracer(nodeRole(i)))
	}

	cl.Client().StoreWrite(0, make([]byte, size))
	start := eng.Now()
	done := false
	var lat sim.Duration
	if err := g.GWrite(0, size, durable, func(r core.Result) {
		lat = r.Latency
		done = true
	}); err != nil {
		return err
	}
	eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
	if !done {
		return errors.New("gWRITE stalled")
	}

	e.Printf("durable gWRITE of %dB across 3 replicas: %v end to end\n", size, lat)
	// Window is (from, to]: start-1 admits the client's first post at +0.
	e.Printf("%s", span.Render(bridge.Window(start-1, start.Add(lat)), start))
	e.Println("\nevery row after the client's three posts runs on a replica NIC;")
	e.Println("no replica host CPU appears anywhere in this timeline.")
	return nil
}

// nodeRole names cluster node i for a timeline: node 0 is the client, the
// rest are replica0..N.
func nodeRole(i int) string {
	if i == 0 {
		return "client"
	}
	return fmt.Sprintf("replica%d", i-1)
}
