package span

import (
	"strconv"
	"strings"
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// bridgeRig is a client plus replicas-1 chain members with setup traffic
// drained, ready to trace one op at a time.
func bridgeRig(t *testing.T, nodes int) (*sim.Engine, *cluster.Cluster, func(size int, durable bool)) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: nodes, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1}})
	g := core.New(cl, core.Config{Depth: 16})
	t.Cleanup(g.Close)
	eng.RunFor(sim.Millisecond)
	cl.Client().StoreWrite(0, []byte("trace-me"))
	return eng, cl, func(size int, durable bool) {
		done := false
		if err := g.GWrite(0, size, durable, func(core.Result) { done = true }); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
		if !done {
			t.Fatal("op stalled")
		}
	}
}

func attachAll(b *Bridge, cl *cluster.Cluster) {
	for i, n := range cl.Nodes {
		role := "client"
		if i > 0 {
			role = "replica" + strconv.Itoa(i-1)
		}
		n.NIC.SetTracer(b.Tracer(role))
	}
}

// One bridge over every NIC yields a merged, time-ordered narration of a
// durable gWRITE with the chain's anatomy visible: execs on the client, rx
// and a fired WAIT on every replica.
func TestBridgeTimeline(t *testing.T) {
	eng, cl, gwrite := bridgeRig(t, 4)
	b := NewBridge(0)
	attachAll(b, cl)
	start := eng.Now()
	gwrite(8, true)

	sawClientExec, sawWait := false, false
	replicas := map[string]bool{}
	var last sim.Time
	for _, e := range b.Events() {
		if e.At < last {
			t.Fatalf("events out of time order at %v", e.At)
		}
		last = e.At
		sawClientExec = sawClientExec || (e.Role == "client" && e.Kind == "exec")
		sawWait = sawWait || e.Kind == "wait"
		if strings.HasPrefix(e.Role, "replica") && e.Kind == "rx" {
			replicas[e.Role] = true
		}
	}
	if !sawClientExec || !sawWait || len(replicas) != 3 {
		t.Fatalf("anatomy incomplete: clientExec=%v wait=%v replicas=%d", sawClientExec, sawWait, len(replicas))
	}
	out := Render(b.Window(start-1, eng.Now()), start)
	if !strings.Contains(out, "WRITE") || !strings.Contains(out, "replica2") {
		t.Fatalf("render missing content:\n%s", out)
	}

	// Reset plus removing the tracers stops collection.
	b.Reset()
	for _, n := range cl.Nodes {
		n.NIC.SetTracer(nil)
	}
	gwrite(8, false)
	if len(b.Events()) != 0 {
		t.Fatal("detached bridge still collecting")
	}
}

func TestBridgeLimit(t *testing.T) {
	_, cl, gwrite := bridgeRig(t, 3)
	b := NewBridge(5)
	attachAll(b, cl)
	for i := 0; i < 10; i++ {
		gwrite(1, false)
	}
	if len(b.Events()) != 5 {
		t.Fatalf("limit not enforced: %d", len(b.Events()))
	}
}

// An event carries the role its tracer was made with, so a NIC re-attached
// under a new role can never render under the old one.
func TestReattachRendersNewRole(t *testing.T) {
	_, cl, gwrite := bridgeRig(t, 2)
	b := NewBridge(0)
	nic := cl.Client().NIC
	nic.SetTracer(b.Tracer("old-name"))
	gwrite(1, false)
	if evs := b.Events(); len(evs) == 0 || evs[0].Role != "old-name" {
		t.Fatalf("attached role not recorded: %+v", evs)
	}

	b.Reset()
	nic.SetTracer(b.Tracer("new-name"))
	gwrite(1, false)
	out := Render(b.Events(), 0)
	if strings.Contains(out, "old-name") || !strings.Contains(out, "new-name") {
		t.Fatalf("stale role rendered:\n%s", out)
	}
}
