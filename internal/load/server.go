package load

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

// Server is the replicated data plane a load driver feeds: one
// shard.PartitionedPlane — a group per sim partition, every Put
// partition-local — whose shards replicate over HyperLoop groups
// (OpenHyperLoop) or Naive-RDMA chains (OpenNaive). The two arms share the
// topology, routing, placement, migration and instrumentation; only the
// shard.BackendFunc differs.
type Server struct{ pp *shard.PartitionedPlane }

func (s Server) Groups() int                { return s.pp.Groups() }
func (s Server) PE() *sim.PartitionedEngine { return s.pp.PE }

// HomeGroup routes a key to the group whose driver must issue it.
func (s Server) HomeGroup(key string) int { return s.pp.HomeGroup(key) }

// Put stores key=value from group g's front-end; g must be the key's home
// group. done fires exactly once on partition g.
func (s Server) Put(g int, key string, value []byte, done func(error)) {
	s.pp.Put(g, key, value, done)
}

// Cluster returns group g's cluster (for instrumentation).
func (s Server) Cluster(g int) *cluster.Cluster { return s.pp.Group(g).Cl }

// Plane returns group g's shard plane for control-plane actuation
// (migration-backed scale-out) and introspection; never nil.
func (s Server) Plane(g int) *shard.Plane { return s.pp.Group(g) }

// Spans returns group g's span recorder (nil unless ServerConfig.WithSpans).
func (s Server) Spans(g int) *span.Recorder { return s.pp.Spans(g) }

// FusionStats sums (batches, fused ops) across the backend's groups.
func (s Server) FusionStats() (batches, ops uint64) {
	for g := 0; g < s.pp.Groups(); g++ {
		b, o := s.pp.Group(g).FusionStats()
		batches += b
		ops += o
	}
	return batches, ops
}

func (s Server) Close() { s.pp.Close() }

// ServerConfig sizes either backend identically: the topology fields mirror
// shard.PartitionedConfig so the two systems differ only in their datapath.
type ServerConfig struct {
	Groups         int // default 2
	ShardsPerGroup int // default 2
	HostsPerGroup  int // default 3
	Replicas       int // default 3
	RegionSize     int // default 1 MiB
	// FusionDepth is the HyperLoop WQE-chain fusion bound (default 1 =
	// legacy one-op-per-doorbell issue; Naive chains have no fusion path).
	FusionDepth int
	// DoorbellCost charges per-MMIO-ring NIC time on every node of either
	// arm (default 0 = free doorbells, the legacy model).
	DoorbellCost sim.Duration
	// HostTiers labels every group's host pool (nil = untiered legacy pool;
	// length HostsPerGroup otherwise) and TierNIC gives each tier its own
	// NIC profile. Both arms place and migrate by tier: placement belongs to
	// the plane, not to the backend.
	HostTiers []shard.Tier
	TierNIC   map[shard.Tier]rdma.Config
	Workers   int
	Seed      int64
	// Metrics optionally attaches one registry per group (nil, or length
	// Groups).
	Metrics []*metrics.Registry
	// WithSpans turns on per-group op-span recording.
	WithSpans bool
}

func (c *ServerConfig) fill() {
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.ShardsPerGroup <= 0 {
		c.ShardsPerGroup = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.HostsPerGroup <= 0 {
		c.HostsPerGroup = 3
	}
	if c.HostsPerGroup < c.Replicas {
		c.HostsPerGroup = c.Replicas
	}
	if c.RegionSize <= 0 {
		c.RegionSize = 1 << 20
	}
	if c.FusionDepth <= 0 {
		c.FusionDepth = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// openLimit bounds WaitOpen for either backend.
const openLimit = sim.Time(sim.Second)

// OpenHyperLoop builds the HyperLoop serving backend and drives it open.
func OpenHyperLoop(cfg ServerConfig) (Server, error) {
	return open(cfg, nil) // nil = the plane's default: HyperLoop groups
}

// OpenNaive builds the Naive-RDMA serving backend — the same plane with
// replica CPUs back on the critical path of every hop — and drives it open.
func OpenNaive(cfg ServerConfig) (Server, error) {
	return open(cfg, func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend {
		return naive.NewWithNodes(eng, client, chain, naive.Config{Mode: naive.Event})
	})
}

func open(cfg ServerConfig, newBackend shard.BackendFunc) (Server, error) {
	cfg.fill()
	pp := shard.NewPartitionedPlane(shard.PartitionedConfig{
		Groups:         cfg.Groups,
		ShardsPerGroup: cfg.ShardsPerGroup,
		HostsPerGroup:  cfg.HostsPerGroup,
		Replicas:       cfg.Replicas,
		RegionSize:     cfg.RegionSize,
		Group:          core.Config{Depth: 512, FusionDepth: cfg.FusionDepth},
		NewBackend:     newBackend,
		Fabric:         fabric.Config{JitterFrac: -1},
		NIC:            rdma.Config{DoorbellCost: cfg.DoorbellCost},
		HostTiers:      cfg.HostTiers,
		TierNIC:        cfg.TierNIC,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		Metrics:        cfg.Metrics,
		WithSpans:      cfg.WithSpans,
	})
	if err := pp.WaitOpen(openLimit); err != nil {
		return Server{}, fmt.Errorf("load: open: %w", err)
	}
	return Server{pp: pp}, nil
}
