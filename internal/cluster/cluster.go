// Package cluster assembles simulated machines: each node couples a
// multi-core host (cpusched), an RDMA NIC (rdma), and an NVM device (nvm)
// on a shared fabric and discrete-event engine. Both the HyperLoop datapath
// and the Naïve-RDMA baselines are built over the same cluster, so their
// comparisons differ only in who performs the replication work.
package cluster

import (
	"fmt"

	"hyperloop/internal/cpusched"
	"hyperloop/internal/fabric"
	"hyperloop/internal/nvm"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// Node is one simulated machine.
type Node struct {
	Index int
	Host  *cpusched.Host
	NIC   *rdma.NIC
	Dev   *nvm.Device
	// Store is the node's registered NVM window — the database + log area
	// every group member exposes at identical offsets (§4.2).
	Store *rdma.MemoryRegion
}

// StoreBytes returns the live contents of the node's store window. It reads
// through the volatile-coherent view; durability is a separate question.
func (n *Node) StoreBytes(off, size int) []byte {
	buf := make([]byte, size)
	n.Store.Backing().ReadAt(off, buf)
	return buf
}

// StoreWrite performs a local CPU store into the node's store window
// (immediately durable, as host stores bypass the NIC cache).
func (n *Node) StoreWrite(off int, data []byte) {
	b := n.Store.Backing().(*rdma.NVMBacking)
	b.Device().Store(b.Base()+off, data)
}

// StoreWindow returns the live bytes [off, off+size) of the node's store
// window without copying: the peek for readers that only look, and the
// place a CPU store can be built in. Bytes written through it are tracked
// for durability only once StorePersist covers them, within the same event
// (nvm.Device.View).
func (n *Node) StoreWindow(off, size int) []byte {
	b := n.Store.Backing().(*rdma.NVMBacking)
	return b.Device().View(b.Base()+off, size)
}

// StorePersist completes a CPU store built in place through StoreWindow:
// together they are one StoreWrite, without the staging copy.
func (n *Node) StorePersist(off, size int) {
	b := n.Store.Backing().(*rdma.NVMBacking)
	b.Device().Persist(b.Base()+off, size)
}

// Config sizes a cluster.
type Config struct {
	Nodes     int             // total machines including the client (node 0)
	StoreSize int             // NVM store bytes per node (default 16 MiB)
	Host      cpusched.Config // per-node CPU model
	NIC       rdma.Config     // per-node NIC model
	Fabric    fabric.Config   // network model
	Seed      int64           // RNG seed (default 1)
	// NodeNIC, when set, overrides NIC per node index — the hook tiered
	// host pools (edge/general/archive hardware profiles) hang off. It must
	// be a pure function of the index so cluster builds stay deterministic.
	NodeNIC func(i int) rdma.Config
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.StoreSize <= 0 {
		c.StoreSize = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Cluster is a set of nodes on one fabric.
type Cluster struct {
	Eng   *sim.Engine
	Net   *fabric.Network
	Rand  *sim.Rand
	Nodes []*Node
}

// New builds a cluster.
func New(eng *sim.Engine, cfg Config) *Cluster {
	cfg.fill()
	r := sim.NewRand(cfg.Seed)
	c := &Cluster{
		Eng:  eng,
		Net:  fabric.New(eng, cfg.Fabric, r.Fork()),
		Rand: r,
	}
	for i := 0; i < cfg.Nodes; i++ {
		dev := nvm.New(cfg.StoreSize)
		nicCfg := cfg.NIC
		if cfg.NodeNIC != nil {
			nicCfg = cfg.NodeNIC(i)
		}
		nic := rdma.NewNIC(eng, c.Net, nicCfg)
		store := nic.RegisterMemory(
			rdma.NewNVMBacking(dev, 0, cfg.StoreSize),
			rdma.AccessLocalWrite|rdma.AccessRemoteWrite|rdma.AccessRemoteRead|rdma.AccessRemoteAtomic,
		)
		c.Nodes = append(c.Nodes, &Node{
			Index: i,
			Host:  cpusched.NewHost(eng, cfg.Host),
			NIC:   nic,
			Dev:   dev,
			Store: store,
		})
	}
	return c
}

// Client returns node 0, the transaction coordinator.
func (c *Cluster) Client() *Node { return c.Nodes[0] }

// Replicas returns nodes 1..n, the chain members.
func (c *Cluster) Replicas() []*Node { return c.Nodes[1:] }

// ConnectPair creates and connects a QP pair between two nodes, with fresh
// CQs on each side, returning (src-side QP, dst-side QP).
func ConnectPair(a, b *Node, sqSlots, rqSlots int) (*rdma.QP, *rdma.QP) {
	qa := a.NIC.CreateQP(a.NIC.CreateCQ(), a.NIC.CreateCQ(), sqSlots, rqSlots)
	qb := b.NIC.CreateQP(b.NIC.CreateCQ(), b.NIC.CreateCQ(), sqSlots, rqSlots)
	rdma.Connect(qa, qb)
	return qa, qb
}

// Loopback creates a loopback QP on a node for NIC-local DMA operations.
func Loopback(n *Node, sqSlots int) *rdma.QP {
	q := n.NIC.CreateQP(n.NIC.CreateCQ(), n.NIC.CreateCQ(), sqSlots, 1)
	rdma.ConnectLoopback(q)
	return q
}

// String describes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{nodes=%d}", len(c.Nodes))
}
