// Package trace collects and renders NIC-level event timelines. Attaching
// a Collector to every NIC in a cluster yields a merged, timestamped
// narration of exactly what the hardware does per operation — §4's Figures
// 4 and 5 as data. cmd/hltrace renders one durable gWRITE this way.
package trace

import (
	"fmt"
	"strings"

	"hyperloop/internal/cluster"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Collector accumulates events from one or more NICs in arrival order
// (which, on the shared engine, is virtual-time order).
type Collector struct {
	events []rdma.TraceEvent
	names  map[int]string
	limit  int
}

// NewCollector creates a collector retaining at most limit events
// (0 = unlimited).
func NewCollector(limit int) *Collector {
	return &Collector{names: make(map[int]string), limit: limit}
}

// Attach subscribes the collector to a node's NIC under the given display
// name. It replaces any previous tracer on that NIC.
func (c *Collector) Attach(n *cluster.Node, name string) {
	c.names[int(n.NIC.Node())] = name
	n.NIC.SetTracer(func(e rdma.TraceEvent) {
		if c.limit > 0 && len(c.events) >= c.limit {
			return
		}
		c.events = append(c.events, e)
	})
}

// AttachAll subscribes every node of a cluster, naming node 0 "client" and
// the rest "replicaN".
func (c *Collector) AttachAll(cl *cluster.Cluster) {
	for i, n := range cl.Nodes {
		name := fmt.Sprintf("replica%d", i-1)
		if i == 0 {
			name = "client"
		}
		c.Attach(n, name)
	}
}

// Detach removes the collector's tracer from a node and forgets its display
// name, so a later re-Attach under a different name cannot render events
// with the stale one.
func (c *Collector) Detach(n *cluster.Node) {
	n.NIC.SetTracer(nil)
	delete(c.names, int(n.NIC.Node()))
}

// Reset discards collected events.
func (c *Collector) Reset() { c.events = c.events[:0] }

// Len returns the number of collected events.
func (c *Collector) Len() int { return len(c.events) }

// Events returns the collected events in order.
func (c *Collector) Events() []rdma.TraceEvent {
	out := make([]rdma.TraceEvent, len(c.events))
	copy(out, c.events)
	return out
}

// Window returns the events with From <= At < To.
func (c *Collector) Window(from, to sim.Time) []rdma.TraceEvent {
	var out []rdma.TraceEvent
	for _, e := range c.events {
		if e.At >= from && e.At < to {
			out = append(out, e)
		}
	}
	return out
}

// Name resolves a node id to its display name.
func (c *Collector) Name(e rdma.TraceEvent) string {
	if n, ok := c.names[int(e.Node)]; ok {
		return n
	}
	return fmt.Sprintf("node%d", int(e.Node))
}

// Render formats events as an aligned timeline relative to base.
func (c *Collector) Render(events []rdma.TraceEvent, base sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-6s %-10s %s\n", "t(+ns)", "node", "kind", "op", "detail")
	b.WriteString(strings.Repeat("-", 60))
	b.WriteByte('\n')
	for _, e := range events {
		op := ""
		if e.Op != 0 {
			op = e.Op.String()
		}
		fmt.Fprintf(&b, "%-10d %-9s %-6s %-10s %s\n",
			e.At.Sub(base), c.Name(e), e.Kind, op, e.Info())
	}
	return b.String()
}
