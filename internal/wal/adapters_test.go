package wal

import (
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
)

// backendArms is every core.Backend the one adapter must carry.
var backendArms = []struct {
	name  string
	build func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend
}{
	{"hyperloop", func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend {
		return core.NewWithNodes(eng, client, chain, core.Config{Depth: 128})
	}},
	{"naive", func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend {
		return naive.NewWithNodes(eng, client, chain, naive.Config{Mode: naive.Event})
	}},
}

// A primitive the group refuses synchronously must still complete through
// done — exactly once, never again when the engine runs on — and a nil done
// must be safe on both the refusal and the completion path.
func TestCoreReplicatorRefusalAndNilDone(t *testing.T) {
	for _, arm := range backendArms {
		t.Run(arm.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := cluster.New(eng, cluster.Config{
				Nodes: 4, StoreSize: 1 << 16, Fabric: fabric.Config{JitterFrac: -1},
			})
			g := arm.build(eng, cl.Client(), cl.Replicas())
			defer g.Close()
			rep := CoreReplicator{G: g}

			fired, acked := 0, 0
			var lastErr error
			refused := func(res core.Result) { fired++; lastErr = res.Err }
			rep.Write(-1, 8, true, refused)
			rep.Memcpy(-1, 0, 8, true, refused)
			if fired != 2 || lastErr == nil {
				t.Fatalf("refusals fired done %d times (err %v), want 2 with an error", fired, lastErr)
			}
			rep.Write(-1, 8, true, nil)
			rep.Memcpy(-1, 0, 8, true, nil)

			rep.Write(0, 8, true, nil)
			rep.Flush(nil)
			rep.Write(64, 8, true, func(res core.Result) {
				if res.Err != nil {
					t.Errorf("write: %v", res.Err)
				}
				acked++
			})
			if !eng.RunUntil(func() bool { return acked == 1 }, eng.Now().Add(sim.Second)) {
				t.Fatal("accepted write never completed")
			}
			eng.RunFor(sim.Millisecond)
			if fired != 2 || acked != 1 {
				t.Fatalf("callbacks fired again: refused=%d acked=%d", fired, acked)
			}
			if g.Failed() != nil {
				t.Fatalf("group failed: %v", g.Failed())
			}
		})
	}
}

// Swapping the group underneath a pointer-held adapter and reattaching the
// log re-replicates the pending tail onto the new group: the member that
// joined with the swap recovers every unexecuted record, and replay lands
// the data on it. This is the pattern shard migration and chain repair use.
func TestCoreReplicatorSwapThenReattach(t *testing.T) {
	for _, arm := range backendArms {
		t.Run(arm.name, func(t *testing.T) {
			eng := sim.NewEngine()
			cl := cluster.New(eng, cluster.Config{
				Nodes: 5, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1},
			})
			client, nodes := cl.Client(), cl.Replicas()
			fresh := nodes[3]
			rep := &CoreReplicator{G: arm.build(eng, client, nodes[:3])}

			const logBase, logSize, dataBase = 0, 64 << 10, 128 << 10
			steps := 0
			step := func(err error) {
				if err != nil {
					t.Errorf("step %d: %v", steps, err)
				}
				steps++
			}
			wait := func(n int, what string) {
				t.Helper()
				if !eng.RunUntil(func() bool { return steps >= n }, eng.Now().Add(sim.Second)) {
					t.Fatalf("%s never completed (%v)", what, rep.G.Failed())
				}
			}
			l := New(NodeStore{N: client}, rep, logBase, logSize, step)
			wait(1, "open")
			if err := l.Append([]Entry{{Offset: dataBase, Data: []byte("first")}}, step); err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]Entry{{Offset: dataBase + 64, Data: []byte("second")}}, step); err != nil {
				t.Fatal(err)
			}
			wait(3, "appends")

			old := rep.G
			rep.G = arm.build(eng, client, nodes[1:4])
			l.Reattach(rep, step)
			wait(4, "reattach")
			old.Close()

			rec, err := Recover(fresh.StoreBytes, logBase, logSize)
			if err != nil || len(rec.Records) != 2 {
				t.Fatalf("fresh member recovered %d records (err %v), want the 2 pending", len(rec.Records), err)
			}
			for i := 0; i < 2; i++ {
				if err := l.ExecuteAndAdvance(step); err != nil {
					t.Fatal(err)
				}
				wait(5+i, "execute")
			}
			if got := fresh.StoreBytes(dataBase, 5); string(got) != "first" {
				t.Fatalf("fresh member missing first: %q", got)
			}
			if got := fresh.StoreBytes(dataBase+64, 6); string(got) != "second" {
				t.Fatalf("fresh member missing second: %q", got)
			}
			if got := nodes[0].StoreBytes(dataBase, 5); string(got) == "first" {
				t.Fatal("replay leaked to the detached member")
			}
			rep.G.Close()
		})
	}
}
