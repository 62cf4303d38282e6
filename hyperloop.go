// Package hyperloop is a simulation-backed reproduction of "HyperLoop:
// Group-Based NIC-Offloading to Accelerate Replicated Transactions in
// Multi-Tenant Storage Systems" (SIGCOMM 2018).
//
// It provides the paper's group-based NIC-offload primitives — gWRITE,
// gCAS, gMEMCPY, gFLUSH — over a deterministic discrete-event model of
// RDMA NICs, NVM devices with volatile NIC caches, a data-center fabric,
// and multi-tenant host CPUs; plus the storage systems built on them
// (a replicated write-ahead log, group locks, a RocksDB-style key-value
// store, and a MongoDB-style document store), the Naïve-RDMA baseline, and
// a benchmark harness regenerating every figure and table of the paper's
// evaluation.
//
// # Quick start
//
//	eng := hyperloop.NewEngine()
//	tb := hyperloop.NewTestbed(eng, 3) // client + 3 replicas
//	tb.Client().StoreWrite(0, []byte("hello"))
//	tb.Group.GWrite(0, 5, true, func(r hyperloop.Result) {
//	    fmt.Println("replicated durably in", r.Latency)
//	})
//	eng.RunFor(hyperloop.Millisecond)
//
// Everything runs in virtual time on the supplied engine: drive it with
// RunFor/RunUntil (a Group's background replenisher keeps the event queue
// non-empty, so Drain on a live group does not return). Runs are
// deterministic for a given seed.
package hyperloop

import (
	"hyperloop/internal/chain"
	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/docstore"
	"hyperloop/internal/fabric"
	"hyperloop/internal/faults"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/locks"
	"hyperloop/internal/naive"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// Core simulation types.
type (
	// Engine is the discrete-event executive all components share.
	Engine = sim.Engine
	// Time is virtual nanoseconds since the start of the run.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Rand is the seeded random source used across the simulation.
	Rand = sim.Rand
)

// Cluster substrate types.
type (
	// Cluster is a set of simulated machines on one fabric.
	Cluster = cluster.Cluster
	// ClusterConfig sizes a cluster.
	ClusterConfig = cluster.Config
	// Node is one machine: host CPU + RDMA NIC + NVM store.
	Node = cluster.Node
	// HostConfig models the multi-tenant CPU scheduler.
	HostConfig = cpusched.Config
	// NICConfig models the RDMA NIC timing.
	NICConfig = rdma.Config
	// FabricConfig models the network.
	FabricConfig = fabric.Config
)

// HyperLoop group types (the paper's contribution).
type (
	// Group is a HyperLoop replication group exposing the four primitives.
	Group = core.Group
	// GroupConfig tunes ring depths and the replenisher.
	GroupConfig = core.Config
	// Backend is the replication-backend seam both Group and NaiveGroup
	// satisfy; a shard plane builds its groups as Backends.
	Backend = core.Backend
	// Result reports a primitive's outcome.
	Result = core.Result
	// ExecuteMap selects gCAS participants.
	ExecuteMap = core.ExecuteMap
	// FanoutGroup is the §7 FaRM-style primary/backup variant: the
	// primary's NIC coordinates the backups.
	FanoutGroup = core.FanoutGroup
	// FixedChain is the §4.1 fixed-replication strawman (static
	// descriptors, one buffer shape) kept for ablations.
	FixedChain = core.FixedChain
)

// Baseline types.
type (
	// NaiveGroup is the Naïve-RDMA baseline with replica CPUs on the
	// critical path.
	NaiveGroup = naive.Group
	// NaiveConfig selects event-driven vs polling consumption.
	NaiveConfig = naive.Config
)

// Storage building blocks.
type (
	// WAL is the replicated write-ahead log (Append / ExecuteAndAdvance).
	WAL = wal.Log
	// WALEntry is one redo modification.
	WALEntry = wal.Entry
	// Replicator is the substrate interface storage engines replicate
	// through (HyperLoop or Naïve).
	Replicator = wal.Replicator
	// LockManager provides group write locks and per-replica read locks
	// over gCAS.
	LockManager = locks.Manager
	// LockConfig tunes lock retry behaviour.
	LockConfig = locks.Config
	// KVStore is the RocksDB-style replicated key-value store.
	KVStore = kvstore.DB
	// KVConfig sizes a KVStore.
	KVConfig = kvstore.Config
	// DocStore is the MongoDB-style replicated document store.
	DocStore = docstore.Store
	// DocConfig sizes a DocStore.
	DocConfig = docstore.Config
	// DocBackend bundles a DocStore's replication substrate.
	DocBackend = docstore.Backend
	// Document is a document store record.
	Document = docstore.Document
	// TxnManager coordinates replicated ACID transactions (§2.1) over the
	// WAL and group locks.
	TxnManager = txn.Manager
	// TxnConfig tunes the transaction manager.
	TxnConfig = txn.Config
	// Txn is one in-flight transaction.
	Txn = txn.Txn
	// ChainManager detects failures and coordinates chain repair.
	ChainManager = chain.Manager
	// ChainConfig tunes heartbeat-based failure detection.
	ChainConfig = chain.Config
	// Summary holds the latency statistics experiments report.
	Summary = stats.Summary
)

// Chaos-testing types: the deterministic fault-injection plane and the
// post-recovery invariant checkers (see `hl chaos`, cmd/hl).
type (
	// FaultPlane schedules seeded fault scenarios against a live cluster.
	FaultPlane = faults.Plane
	// FaultClass enumerates the scenario classes of the fault matrix.
	FaultClass = faults.Class
	// FaultSpec is one planned scenario instance (class, victim, timing).
	FaultSpec = faults.Spec
	// FaultEvent is one recorded fault-timeline action.
	FaultEvent = faults.Event
	// CheckImage is read-only named access to a node's store bytes.
	CheckImage = check.Image
	// CheckResult is one invariant checker's verdict.
	CheckResult = check.Result
	// CheckReport is an ordered list of checker results.
	CheckReport = check.Report
)

// Sharded data-plane types: a keyspace routed across many HyperLoop groups
// on a shared host pool, with live epoch-fenced shard migration and
// hot-shard rebalancing (see `hl shard`, cmd/hl).
type (
	// ShardPlane is the sharded front-end over per-shard KVStores.
	ShardPlane = shard.Plane
	// ShardConfig sizes a plane: shard count, replicas, host pool, regions.
	ShardConfig = shard.Config
	// ShardMap is the versioned key-routing + placement table.
	ShardMap = shard.Map
	// Shard is one shard's live state (group, store, epoch).
	Shard = shard.Shard
	// ShardEvent is one recorded plane-timeline entry.
	ShardEvent = shard.Event
	// Rebalancer watches per-host load and migrates hot shards.
	Rebalancer = shard.Rebalancer
	// RebalanceConfig tunes the rebalancer's trigger policy.
	RebalanceConfig = shard.RebalanceConfig
)

// Re-exported constructors and helpers.
var (
	// NewEngine creates a fresh virtual-time executive.
	NewEngine = sim.NewEngine
	// NewRand creates a seeded random source.
	NewRand = sim.NewRand
	// NewCluster builds simulated machines on a shared fabric.
	NewCluster = cluster.New
	// NewGroup wires a HyperLoop group over a cluster (node 0 = client).
	NewGroup = core.New
	// NewGroupWithNodes wires a group over an explicit client + chain.
	NewGroupWithNodes = core.NewWithNodes
	// NewNaiveGroup wires the baseline over a cluster.
	NewNaiveGroup = naive.New
	// NewFanout wires a FaRM-style fan-out group.
	NewFanout = core.NewFanout
	// NewFixedChain wires the fixed-replication strawman.
	NewFixedChain = core.NewFixedChain
	// NewWAL formats a replicated write-ahead log.
	NewWAL = wal.New
	// NewLockManager creates a gCAS-backed lock manager.
	NewLockManager = locks.New
	// OpenKVStore formats the key-value store.
	OpenKVStore = kvstore.Open
	// OpenDocStore formats the document store.
	OpenDocStore = docstore.Open
	// NewChainManager starts failure detection over a chain.
	NewChainManager = chain.NewManager
	// NewTxnManager creates a replicated transaction coordinator.
	NewTxnManager = txn.New
	// AllReplicas builds a gCAS execute map covering the whole group.
	AllReplicas = core.AllReplicas
	// AddTenants applies background multi-tenant CPU load to a host.
	AddTenants = cpusched.AddTenants
	// NewFaultPlane creates a seeded fault-injection plane over a cluster.
	NewFaultPlane = faults.NewPlane
	// PlanFault derives a deterministic fault scenario from (class, seed).
	PlanFault = faults.Plan
	// FaultClasses lists every chain fault-scenario class in matrix order.
	FaultClasses = faults.Classes
	// AllFaultClasses adds the sharded-plane classes (migration-inflight).
	AllFaultClasses = faults.AllClasses
	// PlanMigrationFault derives a deterministic migration-inflight
	// scenario (victim side, timing) from a seed.
	PlanMigrationFault = faults.PlanMigration
	// NewShardPlane builds a sharded plane on its own fresh cluster.
	NewShardPlane = shard.New
	// OpenShardPlane builds a sharded plane over an existing cluster with
	// an explicit placement.
	OpenShardPlane = shard.Open
	// NewHashShardMap builds a consistent-hash routing table.
	NewHashShardMap = shard.NewHashMap
	// NewRangeShardMap builds a range-boundary routing table.
	NewRangeShardMap = shard.NewRangeMap
)

// Common virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// CoreReplicator adapts a Group for the storage engines.
func CoreReplicator(g *Group) Replicator { return wal.CoreReplicator{G: g} }

// NaiveReplicator adapts a NaiveGroup for the storage engines — the same
// adapter: both groups are a core.Backend.
func NaiveReplicator(g *NaiveGroup) Replicator { return wal.CoreReplicator{G: g} }

// NodeStore adapts a node's NVM window to the WAL's local-store interface.
func NodeStore(n *Node) wal.Store { return wal.NodeStore{N: n} }

// RebuildKV reconstructs a key-value store's contents from a durable image
// (crash recovery).
var RebuildKV = kvstore.Rebuild

// RebuildDocs reconstructs a document store's contents from a durable image.
var RebuildDocs = docstore.Rebuild

// Testbed bundles a wired cluster and HyperLoop group for quick starts.
type Testbed struct {
	Cluster *Cluster
	Group   *Group
}

// NewTestbed builds a cluster of one client plus n replicas with default
// models and a HyperLoop group across them.
func NewTestbed(eng *Engine, n int) *Testbed {
	cl := cluster.New(eng, cluster.Config{Nodes: n + 1})
	return &Testbed{Cluster: cl, Group: core.New(cl, core.Config{})}
}

// Client returns the coordinator node.
func (t *Testbed) Client() *Node { return t.Cluster.Client() }

// Replicas returns the chain nodes.
func (t *Testbed) Replicas() []*Node { return t.Cluster.Replicas() }
