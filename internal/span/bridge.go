// Bridge adapts the rdma.TraceEvent stream into role-tagged events that
// Decompose can partition into per-stage durations. The NIC tracer is the
// only visibility into the offloaded datapath — by construction (§4) no
// host code runs between a WAIT firing and the chained WQE executing, so
// the trace-event boundaries ARE the stage boundaries.
package span

import (
	"fmt"
	"strings"

	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// RoleEvent is a NIC trace event tagged with the logical role of the node
// that emitted it ("client", "replica1", ...).
type RoleEvent struct {
	rdma.TraceEvent
	Role string
}

// Bridge collects RoleEvents from any number of NIC tracers into one
// time-ordered stream (the engine fires events in time order, so appends
// arrive ordered).
type Bridge struct {
	events []RoleEvent
	limit  int
}

// NewBridge creates a bridge retaining up to limit events (0 = DefaultRetain).
func NewBridge(limit int) *Bridge {
	if limit == 0 {
		limit = DefaultRetain
	}
	return &Bridge{limit: limit}
}

// Tracer returns an rdma.Tracer that tags events with role. Install it via
// NIC.SetTracer.
func (b *Bridge) Tracer(role string) rdma.Tracer {
	return func(e rdma.TraceEvent) {
		if b.limit > 0 && len(b.events) >= b.limit {
			return
		}
		b.events = append(b.events, RoleEvent{TraceEvent: e, Role: role})
	}
}

// Events returns the collected stream.
func (b *Bridge) Events() []RoleEvent { return b.events }

// Reset discards collected events (between measured ops, to bound memory).
func (b *Bridge) Reset() { b.events = b.events[:0] }

// Window returns the events with start < At <= end, preserving order.
func (b *Bridge) Window(start, end sim.Time) []RoleEvent {
	var out []RoleEvent
	for _, e := range b.events {
		if e.At > start && e.At <= end {
			out = append(out, e)
		}
	}
	return out
}

// Classifier names the stage of the gap between two adjacent events.
// prev is nil for the gap starting at the op's issue time, next is nil for
// the gap ending at the op's ack time.
type Classifier func(prev, next *RoleEvent) string

// Stage is one named slice of an op's end-to-end window.
type Stage struct {
	Name string
	Dur  sim.Duration
}

// Decompose partitions the window [start, end] at every event boundary and
// sums the slices per classified stage. The slices tile the window exactly,
// so the returned durations always sum to end-start — per-stage breakdowns
// reconcile with end-to-end latency by construction. Stages appear in
// first-encounter order (deterministic given a deterministic event stream).
func Decompose(events []RoleEvent, start, end sim.Time, classify Classifier) []Stage {
	var stages []Stage
	idx := map[string]int{}
	add := func(name string, d sim.Duration) {
		if d <= 0 {
			return
		}
		i, ok := idx[name]
		if !ok {
			i = len(stages)
			idx[name] = i
			stages = append(stages, Stage{Name: name})
		}
		stages[i].Dur += d
	}
	cur := start
	var prev *RoleEvent
	for i := range events {
		e := &events[i]
		if e.At <= start {
			prev = e
			continue
		}
		if e.At > end {
			break
		}
		add(classify(prev, e), e.At.Sub(cur))
		cur = e.At
		prev = e
	}
	add(classify(prev, nil), end.Sub(cur))
	return stages
}

// MergeStages folds src stage durations into dst (matching by name,
// first-encounter order preserved) and returns dst.
func MergeStages(dst, src []Stage) []Stage {
	idx := map[string]int{}
	for i, s := range dst {
		idx[s.Name] = i
	}
	for _, s := range src {
		if i, ok := idx[s.Name]; ok {
			dst[i].Dur += s.Dur
		} else {
			idx[s.Name] = len(dst)
			dst = append(dst, s)
		}
	}
	return dst
}

// Render formats events as an aligned timeline relative to base, one row per
// event under the role it was collected with — so a NIC re-attached under a
// new role can never render under the old one.
func Render(events []RoleEvent, base sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-6s %-10s %s\n", "t(+ns)", "node", "kind", "op", "detail")
	b.WriteString(strings.Repeat("-", 60))
	b.WriteByte('\n')
	for _, e := range events {
		op := ""
		if e.Op != 0 {
			op = e.Op.String()
		}
		fmt.Fprintf(&b, "%-10d %-9s %-6s %-10s %s\n", e.At.Sub(base), e.Role, e.Kind, op, e.Info())
	}
	return b.String()
}
