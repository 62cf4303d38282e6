package experiments

import (
	"fmt"

	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/stats"
)

// Stage breakdown: where does a durable gWRITE's latency go? The NIC trace
// stream is bridged into role-tagged events and each op's end-to-end window
// is partitioned at every event boundary (span.Decompose), so the per-stage
// sums reconcile with end-to-end latency *exactly* — the table is a
// decomposition, not a second measurement. HyperLoop should spend its time
// on the wire and in NIC forwarding; the Naive baseline additionally pays a
// host-cpu stage on every hop (the handler waiting behind co-located
// tenants), which is the paper's whole point in one row.

// StageBreakdownResult is one system's decomposed latency, summed over Ops.
type StageBreakdownResult struct {
	System   System
	Ops      int
	EndToEnd sim.Duration // total across ops; Stages sum to this exactly
	Stages   []span.Stage // first-encounter order, deterministic
}

// Stage returns the summed duration of the named stage (0 if absent).
func (r StageBreakdownResult) Stage(name string) sim.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}

// Share returns the named stage's fraction of end-to-end time.
func (r StageBreakdownResult) Share(name string) float64 {
	if r.EndToEnd <= 0 {
		return 0
	}
	return float64(r.Stage(name)) / float64(r.EndToEnd)
}

// StageNames is the fixed column order of the breakdown table. Stages a
// system never enters render as zero.
var StageNames = []string{
	"client-issue", "client-post", "network", "nic-forward",
	"host-cpu", "nic-stall", "ack-deliver",
}

// classifyStage names the slice between two adjacent trace events. The gap
// *ending* at an event is attributed to whatever that event completes:
// an rx ends a wire transit, a wait/chained exec ends NIC forwarding, and a
// replica exec whose predecessor was an rx ends a host-CPU excursion (only
// the naive datapath has those — HyperLoop's exec follows its WAIT at the
// same instant, so the stage is structurally zero there).
func classifyStage(prev, next *span.RoleEvent) string {
	if next == nil {
		return "ack-deliver"
	}
	if prev == nil {
		return "client-issue"
	}
	switch next.Kind {
	case "stall":
		return "nic-stall"
	case "rx":
		return "network"
	case "wait", "prog":
		// Program control ops (GUARD decisions, COND_REARM branches) run
		// entirely inside the NIC pipeline, like WAIT chaining.
		return "nic-forward"
	case "exec":
		if next.Role == "client" {
			if prev.Role == "client" && prev.Kind == "rx" {
				// A client exec right after a client rx is the host
				// re-issuing after a bounced completion — the retry path
				// a NIC-resident program eliminates.
				return "host-cpu"
			}
			return "client-post"
		}
		if prev.Role == next.Role && (prev.Kind == "wait" || prev.Kind == "exec" || prev.Kind == "prog") {
			return "nic-forward"
		}
		if prev.Kind == "rx" {
			return "host-cpu"
		}
		return "nic-forward"
	}
	return "other"
}

// RunStageBreakdown measures one system's durable-gWRITE latency breakdown.
// Pipeline is forced to 1: the decomposition windows one op at a time, and
// overlapping ops would alias each other's events.
func RunStageBreakdown(p MicroParams) StageBreakdownResult {
	p.Pipeline = 1
	p.fill()
	rig := newMicroRig(p)
	defer rig.close()

	bridge := span.NewBridge(0)
	for i, n := range rig.cl.Nodes {
		role := fmt.Sprintf("replica%d", i-1)
		if i == 0 {
			role = "client"
		}
		n.NIC.SetTracer(bridge.Tracer(role))
	}

	res := StageBreakdownResult{System: p.System, Ops: p.Ops}
	var start sim.Time
	_, err := rig.runOps(p.Ops, 1, 120*sim.Second, func(i int, done func(error)) {
		bridge.Reset()
		start = rig.eng.Now()
		rig.rep.Write(0, p.MsgSize, true, errOnly(func(opErr error) {
			if opErr == nil {
				end := rig.eng.Now()
				res.EndToEnd += end.Sub(start)
				res.Stages = span.MergeStages(res.Stages,
					span.Decompose(bridge.Events(), start, end, classifyStage))
			}
			done(opErr)
		}))
	})
	if err != nil {
		panic(fmt.Sprintf("stage breakdown (%v): %v", p.System, err))
	}
	return res
}

// StageBreakdown runs the breakdown for HyperLoop and the event-driven
// Naive baseline under the paper's 10:1 tenant load, fanned over the worker
// pool; results come back in input order.
func StageBreakdown(seed int64, ops int) []StageBreakdownResult {
	systems := []System{HyperLoop, NaiveEvent}
	out, _ := RunParallel(Parallelism(), len(systems), func(i int) (StageBreakdownResult, error) {
		return RunStageBreakdown(MicroParams{
			System: systems[i], Ops: ops, TenantsPerCore: 10, Seed: seed,
		}), nil
	})
	return out
}

// StageBreakdownTable renders results as mean-per-op stage durations with
// end-to-end shares.
func StageBreakdownTable(rows []StageBreakdownResult) *stats.Table {
	header := []string{"system", "end-to-end"}
	header = append(header, StageNames...)
	tb := stats.NewTable(header...)
	for _, r := range rows {
		ops := r.Ops
		if ops <= 0 {
			ops = 1
		}
		cells := []string{r.System.String(), fmt.Sprintf("%v", r.EndToEnd/sim.Duration(ops))}
		for _, name := range StageNames {
			cells = append(cells, fmt.Sprintf("%v (%.1f%%)",
				r.Stage(name)/sim.Duration(ops), 100*r.Share(name)))
		}
		tb.AddRow(cells...)
	}
	return tb
}
