// Command hltrace narrates one durable gWRITE through a 3-replica
// HyperLoop chain at NIC-event granularity: every WQE execution, WAIT
// firing, ownership stall, and inbound message on every NIC, with virtual
// timestamps — §4's Figures 4-5 as a live timeline. Note which node column
// each event sits in: after the client's initial three sends, every event
// happens on replica NICs with no host code anywhere.
//
// Usage:
//
//	hltrace [-size N] [-durable=true] [-seed N] [-parallel N]
//
// -parallel exists on every hl* command with the same default; the single
// narrated run here is inherently serial, so it is accepted for interface
// uniformity and does not change the output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"hyperloop"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/sim"
	"hyperloop/internal/trace"
)

var (
	size    = flag.Int("size", 256, "payload bytes")
	durable = flag.Bool("durable", true, "interleave gFLUSH")
	seed    = flag.Int64("seed", 1, "simulation seed")
	_       = flag.Int("parallel", 0, "worker count (0 = all cores, 1 = serial)")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout, *size, *durable, *seed); err != nil {
		log.Fatal(err)
	}
}

// run narrates one gWRITE of size bytes to w.
func run(w io.Writer, size int, durable bool, seed int64) error {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     4,
		StoreSize: 1 << 20,
		Seed:      seed,
		Host:      cpusched.Config{Seed: seed},
	})
	g := core.New(cl, core.Config{Depth: 16})
	defer g.Close()

	// Let setup traffic (priming, credit seeds) drain before tracing.
	eng.RunFor(hyperloop.Millisecond)

	col := trace.NewCollector(0)
	col.AttachAll(cl)

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
	eng.RunUntil(func() bool { return done }, eng.Now().Add(hyperloop.Second))
	if !done {
		return errors.New("gWRITE stalled")
	}

	fmt.Fprintf(w, "durable gWRITE of %dB across 3 replicas: %v end to end\n", size, lat)
	fmt.Fprint(w, col.Render(col.Window(start, start.Add(lat+1)), start))
	fmt.Fprintln(w, "\nevery row after the client's three posts runs on a replica NIC;")
	fmt.Fprintln(w, "no replica host CPU appears anywhere in this timeline.")
	return nil
}
