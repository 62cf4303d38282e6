// Package experiments regenerates every table and figure in the paper's
// evaluation (§2.2 motivation and §6): the same workloads, parameter
// sweeps, baselines, and reported statistics, over the simulated cluster.
// Each experiment is a plain function returning rows, shared by the root
// benchmark suite, EXPERIMENTS.md and the scenario registry (registry.go):
// the entry that renders a RunX sits beside it, and cmd/hl runs them all.
package experiments

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
)

// System selects a datapath implementation.
type System int

// Systems under comparison.
const (
	HyperLoop    System = iota // NIC-offloaded group primitives
	NaiveEvent                 // replica CPUs, event-driven completion handling
	NaivePolling               // replica CPUs, co-located busy-pollers
	NaivePinned                // replica CPUs, pollers on dedicated cores
)

func (s System) String() string {
	switch s {
	case HyperLoop:
		return "HyperLoop"
	case NaiveEvent:
		return "Naive-Event"
	case NaivePolling:
		return "Naive-Polling"
	case NaivePinned:
		return "Naive-Pinned"
	default:
		return fmt.Sprintf("system(%d)", int(s))
	}
}

// newBackend builds sys's replication group over cl (node 0 = client) with
// the 256-op client window every paper-figure rig uses.
func newBackend(sys System, cl *cluster.Cluster) core.Backend {
	if sys == HyperLoop {
		return core.New(cl, core.Config{Depth: 2048, MaxInflight: 256})
	}
	cfg := naive.Config{Mode: naive.Polling, PinCore: sys == NaivePinned, MaxInflight: 256}
	if sys == NaiveEvent {
		cfg.Mode = naive.Event
	}
	return naive.New(cl, cfg)
}

// MicroParams configures a microbenchmark run (§6.1's setup: group of
// replicas, stress-ng style co-located CPU load, fixed message size).
type MicroParams struct {
	System    System
	GroupSize int // replicas in the chain (default 3)
	MsgSize   int // bytes per op (default 1024)
	Ops       int // measured operations (default 10000, as in the paper)
	Pipeline  int // concurrent ops (default 1: closed loop, latency mode)
	// TenantsPerCore is the co-located CPU-hog multiplier (default 10,
	// the paper's 10:1 process-to-core ratio; 0 disables).
	TenantsPerCore int
	Durable        bool // interleave gFLUSH
	// NoWakeupBonus disables the CFS sleeper-fairness model on every host
	// (pure FIFO behind tenants) — ablation knob.
	NoWakeupBonus bool
	Seed          int64
}

func (p *MicroParams) fill() {
	if p.GroupSize <= 0 {
		p.GroupSize = 3
	}
	if p.MsgSize <= 0 {
		p.MsgSize = 1024
	}
	if p.Ops <= 0 {
		p.Ops = 10000
	}
	if p.Pipeline <= 0 {
		p.Pipeline = 1
	}
	if p.TenantsPerCore < 0 {
		p.TenantsPerCore = 0
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// microRig is a cluster plus a group of the selected system with background
// load applied to every replica host.
type microRig struct {
	eng   *sim.Engine
	cl    *cluster.Cluster
	rep   wal.CoreReplicator // rep.G is the selected system's group
	stops []func()
}

func newMicroRig(p MicroParams) *microRig {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     p.GroupSize + 1,
		StoreSize: 16 << 20,
		Host:      cpusched.Config{NoWakeupBonus: p.NoWakeupBonus, Seed: p.Seed},
		Seed:      p.Seed,
	})
	r := &microRig{eng: eng, cl: cl}
	// Co-located tenant load on replica hosts (the client is the dedicated
	// measurement machine, as in §6.1).
	if p.TenantsPerCore > 0 {
		for _, rep := range cl.Replicas() {
			stop := cpusched.AddTenants(eng, rep.Host, p.TenantsPerCore*rep.Host.Cores(),
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork())
			r.stops = append(r.stops, stop)
		}
	}
	r.rep.G = newBackend(p.System, cl)
	return r
}

// errOnly adapts an error-only completion to the replicator's done.
func errOnly(done func(error)) func(core.Result) {
	return func(res core.Result) { done(res.Err) }
}

// gcas issues a gCAS on every replica. gCAS is outside core.Backend (the
// arms disagree on the execute-map type), so it dispatches on the group.
func (r *microRig) gcas(off int, old, new uint64, done func(error)) {
	cb := errOnly(done)
	var err error
	switch g := r.rep.G.(type) {
	case *core.Group:
		err = g.GCAS(off, old, new, core.AllReplicas(g.GroupSize()), cb)
	case *naive.Group:
		err = g.GCAS(off, old, new, ^uint64(0), cb)
	}
	if err != nil {
		done(err)
	}
}

func (r *microRig) close() {
	r.rep.G.Close()
	for _, s := range r.stops {
		s()
	}
}

// runOps drives `ops` operations with `pipeline` in flight, recording
// per-op latency; issue builds op i and must invoke the callback exactly
// once on completion.
func (r *microRig) runOps(ops, pipeline int, deadline sim.Duration,
	issue func(i int, done func(error))) (*stats.Histogram, error) {
	hist := stats.NewHistogram()
	completed := 0
	launched := 0
	var firstErr error
	var launch func()
	launch = func() {
		if launched >= ops || firstErr != nil {
			return
		}
		i := launched
		launched++
		start := r.eng.Now()
		issue(i, func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			hist.Record(r.eng.Now().Sub(start))
			completed++
			launch()
		})
	}
	for k := 0; k < pipeline && k < ops; k++ {
		launch()
	}
	r.eng.RunUntil(func() bool {
		return completed >= ops || firstErr != nil || r.rep.G.Failed() != nil
	}, r.eng.Now().Add(deadline))
	if r.rep.G.Failed() != nil {
		return hist, r.rep.G.Failed()
	}
	if firstErr != nil {
		return hist, firstErr
	}
	if completed < ops {
		return hist, fmt.Errorf("experiments: only %d/%d ops completed by deadline", completed, ops)
	}
	return hist, nil
}
