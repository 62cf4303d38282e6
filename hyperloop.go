// Package hyperloop is a simulation-backed reproduction of "HyperLoop:
// Group-Based NIC-Offloading to Accelerate Replicated Transactions in
// Multi-Tenant Storage Systems" (SIGCOMM 2018).
//
// It provides the paper's group-based NIC-offload primitives — gWRITE,
// gCAS, gMEMCPY, gFLUSH — over a deterministic discrete-event model of
// RDMA NICs, NVM devices with volatile NIC caches, a data-center fabric,
// and multi-tenant host CPUs; plus the storage systems built on them
// (a replicated write-ahead log, group locks, a RocksDB-style key-value
// store, and a MongoDB-style document store) and the Naïve-RDMA baseline.
// The package's Examples are its runnable demonstrations; the hl command
// (cmd/hl) regenerates every figure and table of the paper's evaluation.
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
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/locks"
	"hyperloop/internal/naive"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/txn"
	"hyperloop/internal/wal"
)

// Core simulation types.
type (
	// Engine is the discrete-event executive all components share.
	Engine = sim.Engine
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
)

// HyperLoop group types (the paper's contribution).
type (
	// Group is a HyperLoop replication group exposing the four primitives.
	Group = core.Group
	// GroupConfig tunes ring depths and the replenisher.
	GroupConfig = core.Config
	// Backend is the replication-backend seam both Group and the Naïve
	// baseline satisfy; a shard plane builds its groups as Backends.
	Backend = core.Backend
	// Result reports a primitive's outcome.
	Result = core.Result
	// NaiveConfig selects the Naïve-RDMA baseline's event-driven vs polling
	// consumption.
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
	// LockConfig tunes lock retry behaviour.
	LockConfig = locks.Config
	// KVStore is the RocksDB-style replicated key-value store.
	KVStore = kvstore.DB
	// KVConfig sizes a KVStore.
	KVConfig = kvstore.Config
	// DocConfig sizes a document store.
	DocConfig = docstore.Config
	// DocBackend bundles a document store's replication substrate.
	DocBackend = docstore.Backend
	// Document is a document store record.
	Document = docstore.Document
	// TxnConfig tunes the transaction manager.
	TxnConfig = txn.Config
	// ChainManager detects failures and coordinates chain repair.
	ChainManager = chain.Manager
	// ChainConfig tunes heartbeat-based failure detection.
	ChainConfig = chain.Config
)

// Sharded data-plane types: a keyspace routed across many HyperLoop groups
// on a shared host pool, with live epoch-fenced shard migration and
// hot-shard rebalancing (see `hl shard`, cmd/hl).
type (
	// ShardConfig sizes a plane: shard count, replicas, host pool, regions.
	ShardConfig = shard.Config
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
	// NewShardPlane builds a sharded plane on its own fresh cluster.
	NewShardPlane = shard.New
)

// Common virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// CoreReplicator adapts a Group for the storage engines.
func CoreReplicator(g *Group) Replicator { return wal.CoreReplicator{G: g} }

// NodeStore adapts a node's NVM window to the WAL's local-store interface.
func NodeStore(n *Node) wal.Store { return wal.NodeStore{N: n} }

// RebuildKV reconstructs a key-value store's contents from a durable image
// (crash recovery).
var RebuildKV = kvstore.Rebuild

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
