package shard

import (
	"errors"
	"fmt"

	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/metrics"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

// PartitionedConfig sizes a PartitionedPlane: Groups shard groups, each a
// full Plane (its own front-end, replica hosts, and intra-group fabric) that
// lives on its own sim partition. Groups talk only over an inter-group link
// whose minimum latency is the engine's conservative lookahead.
type PartitionedConfig struct {
	// Groups is the shard-group — and therefore sim-partition — count
	// (default 4).
	Groups int
	// ShardsPerGroup is each group's shard count (default 4).
	ShardsPerGroup int
	// HostsPerGroup is each group's replica host-pool size (default 4 — four
	// groups match the classic 16-host budget).
	HostsPerGroup int
	// Replicas is the chain length per shard (default 3).
	Replicas int
	// RegionSize / LogSize / CommitEvery / Group / NewBackend / Fabric / NIC
	// configure every group's Plane exactly as in Config.
	RegionSize  int
	LogSize     int
	CommitEvery int
	Group       core.Config
	NewBackend  BackendFunc
	Fabric      fabric.Config
	NIC         rdma.Config
	// CRAQ enables clean/dirty read serving on every group's plane exactly
	// as in Config.CRAQ.
	CRAQ bool
	// InterFabric models the link between groups (default 3µs propagation —
	// an inter-rack hop, wider than the intra-group 1.5µs). Its MinLatency
	// is the engine lookahead; cross-group forwards pay its deterministic
	// Latency both ways.
	InterFabric fabric.Config
	// HostTiers / TierNIC / Hints configure tiered placement per group
	// exactly as in Config — every group's pool carries the same tier
	// labels, keeping cross-group placement symmetric and deterministic.
	HostTiers []Tier
	TierNIC   map[Tier]rdma.Config
	Hints     func(shard int) Hint
	// Seed feeds every group (group g gets Seed + g*9973).
	Seed int64
	// Workers is the engine worker count (0 = all cores, 1 = serial).
	Workers int
	// Metrics optionally attaches one registry per group (nil, or length
	// Groups). Per-group registries keep metric updates partition-local; the
	// caller merges them in group order after the run.
	Metrics []*metrics.Registry
	// WithSpans attaches one span.Recorder per group (retrievable via
	// Spans(g)), so every Put records an op span without any cross-partition
	// append — recorders, like registries, are merged by the caller in group
	// order.
	WithSpans bool
}

func (c *PartitionedConfig) fill() {
	if c.Groups <= 0 {
		c.Groups = 4
	}
	if c.ShardsPerGroup <= 0 {
		c.ShardsPerGroup = 4
	}
	if c.HostsPerGroup <= 0 {
		c.HostsPerGroup = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.HostsPerGroup < c.Replicas {
		c.HostsPerGroup = c.Replicas
	}
	if c.InterFabric.PropDelay <= 0 {
		c.InterFabric.PropDelay = 3000 * sim.Nanosecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metrics != nil && len(c.Metrics) != c.Groups {
		panic(fmt.Sprintf("shard: %d metric registries for %d groups", len(c.Metrics), c.Groups))
	}
}

// ErrForwardFailed wraps a cross-group forward whose home group refused the
// put synchronously; callers match the underlying cause with errors.Is.
var ErrForwardFailed = errors.New("shard: cross-group forward refused")

// PartitionedPlane is the sharded data plane scaled out across a
// sim.PartitionedEngine: Groups independent Planes, one per partition, plus
// deterministic cross-group request forwarding over the inter-group link.
// Keys route to a home group by hash; a Put issued at its home group runs
// entirely partition-local, everything else is forwarded and acked over the
// hand-off queues. All cross-partition timing uses the jitter-free
// InterFabric.Latency, so results are bit-identical at any worker count.
type PartitionedPlane struct {
	PE *sim.PartitionedEngine
	// GroupMap routes keys to their home group.
	GroupMap *Map

	cfg    PartitionedConfig
	groups []*Plane
	spans  []*span.Recorder // per group, nil unless cfg.WithSpans

	// Per-source-group counters: each slot is touched only by its own
	// partition, read after Run returns.
	localPuts []uint64
	fwdPuts   []uint64

	openDone []bool
	openErr  []error
}

// NewPartitionedPlane builds Groups planes over a fresh PartitionedEngine
// with lookahead InterFabric.MinLatency(). Call WaitOpen before issuing
// load: opening (log-header durability on every shard) needs the engines to
// run.
func NewPartitionedPlane(cfg PartitionedConfig) *PartitionedPlane {
	cfg.fill()
	pe := sim.NewPartitioned(cfg.Groups, cfg.InterFabric.MinLatency())
	pe.SetWorkers(cfg.Workers)
	pp := &PartitionedPlane{
		PE:        pe,
		GroupMap:  NewHashMap(cfg.Groups),
		cfg:       cfg,
		groups:    make([]*Plane, cfg.Groups),
		localPuts: make([]uint64, cfg.Groups),
		fwdPuts:   make([]uint64, cfg.Groups),
		openDone:  make([]bool, cfg.Groups),
		openErr:   make([]error, cfg.Groups),
	}
	if cfg.WithSpans {
		pp.spans = make([]*span.Recorder, cfg.Groups)
	}
	for g := 0; g < cfg.Groups; g++ {
		g := g
		gcfg := Config{
			Shards:      cfg.ShardsPerGroup,
			Replicas:    cfg.Replicas,
			Hosts:       cfg.HostsPerGroup,
			RegionSize:  cfg.RegionSize,
			LogSize:     cfg.LogSize,
			CommitEvery: cfg.CommitEvery,
			Group:       cfg.Group,
			NewBackend:  cfg.NewBackend,
			Fabric:      cfg.Fabric,
			NIC:         cfg.NIC,
			CRAQ:        cfg.CRAQ,
			HostTiers:   cfg.HostTiers,
			TierNIC:     cfg.TierNIC,
			Hints:       cfg.Hints,
			Seed:        cfg.Seed + int64(g)*9973,
		}
		if cfg.Metrics != nil {
			gcfg.Metrics = cfg.Metrics[g]
		}
		if cfg.WithSpans {
			pp.spans[g] = span.NewRecorder(pe.Partition(g))
			gcfg.Spans = pp.spans[g]
		}
		pp.groups[g] = New(pe.Partition(g), gcfg, func(err error) {
			pp.openDone[g] = true
			pp.openErr[g] = err
		})
	}
	return pp
}

// WaitOpen drives the engines in deterministic chunks until every group
// reports open (or limit passes). The open callbacks fire on their own
// partitions; completion is only inspected between Run calls, when no worker
// is live.
func (pp *PartitionedPlane) WaitOpen(limit sim.Time) error {
	const chunk = 100 * sim.Microsecond
	for t := sim.Time(0).Add(chunk); ; t = t.Add(chunk) {
		if t > limit {
			t = limit
		}
		pp.PE.Run(t)
		all := true
		for g := range pp.openDone {
			if pp.openErr[g] != nil {
				return fmt.Errorf("group %d open: %w", g, pp.openErr[g])
			}
			all = all && pp.openDone[g]
		}
		if all {
			return nil
		}
		if t == limit {
			return fmt.Errorf("shard: %d groups not open by %v", pp.Groups(), limit)
		}
	}
}

// Groups returns the group count.
func (pp *PartitionedPlane) Groups() int { return len(pp.groups) }

// Group returns group g's plane. Direct use (Get, Commit, Flush, shard
// introspection) is only safe from events running on partition g, or between
// Run calls.
func (pp *PartitionedPlane) Group(g int) *Plane { return pp.groups[g] }

// Spans returns group g's span recorder (nil unless WithSpans). Same safety
// rule as Group: partition g's events, or between Run calls.
func (pp *PartitionedPlane) Spans(g int) *span.Recorder {
	if pp.spans == nil {
		return nil
	}
	return pp.spans[g]
}

// groupSalt decorrelates group-level routing from the per-plane shard maps:
// both are consistent-hash rings over the same key hash, and the group
// ring's points are a subset of a larger plane ring's, so routing the raw
// key at both levels would make some (group, shard) pairs unreachable.
const groupSalt = "\x00group\x00"

// HomeGroup returns the group owning key. Always use this (not
// GroupMap.Route directly): the group ring hashes a salted key.
func (pp *PartitionedPlane) HomeGroup(key string) int {
	return pp.GroupMap.Route(groupSalt + key)
}

// LocalPuts and ForwardedPuts report per-issuing-group put counts; call
// between Run invocations.
func (pp *PartitionedPlane) LocalPuts() []uint64     { return append([]uint64(nil), pp.localPuts...) }
func (pp *PartitionedPlane) ForwardedPuts() []uint64 { return append([]uint64(nil), pp.fwdPuts...) }

// forward wire-format overhead: routing header on the request, status-only
// ack on the way back.
const fwdHeaderBytes = 24

// Put stores key=value from group src's front-end; done fires back on
// partition src at the durability point (exactly once, also on synchronous
// refusal). A key homed on src is a plain local put; otherwise the request
// is forwarded to its home group over the inter-group link and the ack rides
// back the same way — both legs at the link's deterministic latency, which
// is never below the engine lookahead.
func (pp *PartitionedPlane) Put(src int, key string, value []byte, done func(error)) {
	home := pp.HomeGroup(key)
	if home == src {
		pp.localPuts[src]++
		if _, err := pp.groups[src].Put(key, value, done); err != nil {
			done(err) // refusal: the plane never fires the callback itself
		}
		return
	}
	pp.fwdPuts[src]++
	reqLat := pp.cfg.InterFabric.Latency(fwdHeaderBytes + len(key) + len(value))
	ackLat := pp.cfg.InterFabric.Latency(fwdHeaderBytes)
	reply := func(err error) {
		pp.PE.Send(home, src, sim.Duration(ackLat), func() { done(err) })
	}
	pp.PE.Send(src, home, sim.Duration(reqLat), func() {
		if _, err := pp.groups[home].Put(key, value, reply); err != nil {
			reply(fmt.Errorf("%w: %w", ErrForwardFailed, err))
		}
	})
}

// CommitAll drains every group's WAL executors, then FlushAll's gFLUSH, by
// scheduling the calls onto their own partitions; drive the engine afterward
// and inspect errors between runs via the returned slots.
func (pp *PartitionedPlane) CommitAll() []*error {
	out := make([]*error, len(pp.groups))
	for g := range pp.groups {
		g := g
		slot := new(error)
		out[g] = slot
		pp.PE.Partition(g).Schedule(0, func() {
			pp.groups[g].Commit(func(err error) {
				if err != nil {
					*slot = err
				}
			})
		})
	}
	return out
}

// Close stops every group's plane. Call between Run invocations only.
func (pp *PartitionedPlane) Close() {
	for _, pl := range pp.groups {
		pl.Close()
	}
}

func (pp *PartitionedPlane) String() string {
	return fmt.Sprintf("shard.PartitionedPlane{groups=%d shards/group=%d lookahead=%v}",
		len(pp.groups), pp.cfg.ShardsPerGroup, pp.PE.Lookahead())
}
