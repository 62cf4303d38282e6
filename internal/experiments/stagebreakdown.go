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

// StageSums is a decomposed latency summed over Ops measured operations.
type StageSums struct {
	Ops      int
	EndToEnd sim.Duration // total across ops; Stages sum to this exactly
	Stages   []span.Stage // first-encounter order, deterministic
}

// Stage returns the summed duration of the named stage (0 if absent).
func (r StageSums) Stage(name string) sim.Duration {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}

// Share returns the named stage's fraction of end-to-end time.
func (r StageSums) Share(name string) float64 {
	if r.EndToEnd <= 0 {
		return 0
	}
	return float64(r.Stage(name)) / float64(r.EndToEnd)
}

// add folds one op's window [start, end] into the sums.
func (r *StageSums) add(events []span.RoleEvent, start, end sim.Time, classify span.Classifier) {
	r.EndToEnd += end.Sub(start)
	r.Stages = span.MergeStages(r.Stages, span.Decompose(events, start, end, classify))
}

// perOp is the mean of a summed duration over the measured ops.
func (r StageSums) perOp(d sim.Duration) sim.Duration {
	if r.Ops <= 0 {
		return d
	}
	return d / sim.Duration(r.Ops)
}

// stageCells renders one "mean (share%)" cell per StageNames column.
func (r StageSums) stageCells() []string {
	cells := make([]string, len(StageNames))
	for i, name := range StageNames {
		cells[i] = fmt.Sprintf("%v (%.1f%%)", r.perOp(r.Stage(name)), 100*r.Share(name))
	}
	return cells
}

// StageBreakdownResult is one system's decomposed durable-gWRITE latency.
type StageBreakdownResult struct {
	System System
	StageSums
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
		n.NIC.SetTracer(bridge.Tracer(nodeRole(i)))
	}

	res := StageBreakdownResult{System: p.System, StageSums: StageSums{Ops: p.Ops}}
	var start sim.Time
	_, err := rig.runOps(p.Ops, 1, 120*sim.Second, func(i int, done func(error)) {
		bridge.Reset()
		start = rig.eng.Now()
		rig.rep.Write(0, p.MsgSize, true, errOnly(func(opErr error) {
			if opErr == nil {
				res.add(bridge.Events(), start, rig.eng.Now(), classifyStage)
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
	tb := stats.NewTable(append([]string{"system", "end-to-end"}, StageNames...)...)
	for _, r := range rows {
		tb.AddRow(append([]string{r.System.String(), fmt.Sprint(r.perOp(r.EndToEnd))}, r.stageCells()...)...)
	}
	return tb
}

// stagesScenario renders the durable-gWRITE latency decomposition (mean
// per-op stage durations; the stages tile the end-to-end window exactly).
func stagesScenario(e *Env) error {
	e.Println("=== Stage breakdown: durable gWRITE, group=3, 10:1 co-location ===")
	e.Table(StageBreakdownTable(StageBreakdown(e.Seed, microOps(e)/4)))
	return nil
}
