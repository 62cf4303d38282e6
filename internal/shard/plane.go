package shard

import (
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/metrics"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/wal"
)

// Errors surfaced by the plane.
var (
	ErrBadShard    = errors.New("shard: no such shard")
	ErrMigrating   = errors.New("shard: shard already migrating")
	ErrBadDest     = errors.New("shard: bad migration destination")
	ErrNotOpen     = errors.New("shard: plane not open")
	ErrShardFailed = errors.New("shard: owning group failed")
)

// Per-region layout: the epoch word sits at the region base, the WAL after a
// cache-line pad, the data area after the WAL.
const (
	epochOff  = 0
	regionHdr = 64
)

// Config sizes the sharded data plane.
type Config struct {
	// Shards is the shard count (default 4).
	Shards int
	// Replicas is the chain length per shard (default 3).
	Replicas int
	// Hosts is the replica host-pool size (default max(Replicas,
	// 2*Shards*Replicas/3) — enough spread for rebalancing). The cluster
	// carries Hosts+1 nodes: node 0 is the shared front-end client.
	Hosts int
	// RegionSize is the store bytes each shard owns on every node
	// (default 1 MiB).
	RegionSize int
	// LogSize is the per-shard WAL size (default RegionSize/4).
	LogSize int
	// ChunkBytes is the bulk-copy granularity for migrations (default 64 KiB).
	ChunkBytes int
	// Boundaries switches the map to range routing with these sorted
	// boundaries (len == Shards-1); nil selects consistent hashing.
	Boundaries []string
	// Fabric tunes the network when New builds the cluster itself (Open
	// ignores it — the caller's cluster wins).
	Fabric fabric.Config
	// NIC tunes every node's NIC when New builds the cluster itself (Open
	// ignores it, like Fabric). The zero value keeps legacy timing; setting
	// DoorbellCost charges per-ring MMIO and makes WQE-chain fusion pay off.
	NIC rdma.Config
	// Group tunes every shard's HyperLoop group (the default NewBackend).
	Group core.Config
	// NewBackend builds a shard's replication group over the front-end and
	// an ordered replica chain: once per shard at open and once per
	// migration for the destination. nil selects HyperLoop groups tuned by
	// Group; the Naive-RDMA arm (or any other core.Backend) plugs in here.
	NewBackend BackendFunc
	// CommitEvery is the per-shard kvstore commit policy (default 1).
	CommitEvery int
	// CRAQ enables clean/dirty read serving at every chain replica
	// (kvstore.EnableCRAQ): clean keys are read from the queried replica
	// directly, dirty keys forward to the tail. Off by default — CRAQ runs
	// are a distinct configuration, so legacy byte-streams are untouched.
	CRAQ bool
	// Seed feeds the cluster and the per-shard stores.
	Seed int64
	// HostTiers labels each pool host with a hardware tier (nil = the
	// legacy uniform general pool). With tiers set and no explicit
	// placement, shards place via hint-biased tiered rendezvous, and every
	// migration destination must satisfy the no-all-edge constraint.
	HostTiers []Tier
	// TierNIC overrides the NIC profile per tier when New builds the
	// cluster itself (edge faster, archive slower). Open ignores it, like
	// Fabric and NIC — the caller's cluster wins.
	TierNIC map[Tier]rdma.Config
	// Hints supplies each shard's service-temperature hint for tiered
	// placement and the rebalancer (nil = HintNone throughout).
	Hints func(shard int) Hint
	// Metrics attaches the observability registry (nil = disabled). Series
	// are labeled "s<id>" per shard — cardinality is bounded by the shard
	// count, never the keyspace.
	Metrics *metrics.Registry
	// Spans attaches op-span recording: every Put opens a span tagged with
	// its shard and issue epoch, and migration cutovers record epoch fences
	// (nil = disabled). Observation-only either way.
	Spans *span.Recorder
}

// BackendFunc constructs one replication group for a Plane.
type BackendFunc func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend

func (c *Config) fill() {
	if c.NewBackend == nil {
		group := c.Group
		c.NewBackend = func(eng *sim.Engine, client *cluster.Node, chain []*cluster.Node) core.Backend {
			return core.NewWithNodes(eng, client, chain, group)
		}
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Hosts <= 0 {
		c.Hosts = c.Shards * c.Replicas * 2 / 3
		if c.Hosts < c.Replicas {
			c.Hosts = c.Replicas
		}
	}
	if c.RegionSize <= 0 {
		c.RegionSize = 1 << 20
	}
	if c.LogSize <= 0 {
		c.LogSize = c.RegionSize / 4
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 64 << 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Boundaries != nil && len(c.Boundaries) != c.Shards-1 {
		panic(fmt.Sprintf("shard: %d boundaries for %d shards", len(c.Boundaries), c.Shards))
	}
}

// Shard is one keyspace partition: a region of every store window, a
// replication group over its current replica set, and a kvstore head.
type Shard struct {
	ID    int
	plane *Plane
	base  int    // region base offset in the store window
	label string // "s<ID>": metric series and span label

	epoch    uint64              // bumps at every migration cutover
	rep      *wal.CoreReplicator // rep.G is the current group; migration swaps it
	db       *kvstore.DB
	replicas []int // current replica host indexes (mirrors Map.Placement)

	migrating  bool
	migrations uint64

	ops       uint64 // lifetime routed write ops
	windowOps uint64 // write ops since the last detector scan
	latEWMA   sim.Duration
	former    map[int]bool // host indexes that owned this shard before a cutover

	// observability handles (nil when the plane is uninstrumented)
	putCount   *metrics.Counter
	putRefused *metrics.Counter
	putLat     *metrics.Histogram
}

// Epoch returns the shard's current epoch (bumped at every cutover).
func (s *Shard) Epoch() uint64 { return s.epoch }

// Migrating reports whether a migration is in flight.
func (s *Shard) Migrating() bool { return s.migrating }

// Migrations counts completed cutovers.
func (s *Shard) Migrations() uint64 { return s.migrations }

// Ops returns lifetime routed write operations.
func (s *Shard) Ops() uint64 { return s.ops }

// LatencyEWMA returns the exponentially weighted put latency.
func (s *Shard) LatencyEWMA() sim.Duration { return s.latEWMA }

// Backend returns the shard's current replication group.
func (s *Shard) Backend() core.Backend { return s.rep.G }

// DB returns the shard's kvstore head.
func (s *Shard) DB() *kvstore.DB { return s.db }

// Replicas returns the current replica host indexes.
func (s *Shard) Replicas() []int { return append([]int(nil), s.replicas...) }

// FormerOwners returns host indexes that held this shard before a completed
// migration (and no longer do) — the set the epoch-fence check audits.
func (s *Shard) FormerOwners() []int {
	var out []int
	for h := range s.former {
		out = append(out, h)
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// epochBytes renders e as the store's epoch-word image.
func epochBytes(e uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(e >> (8 * i))
	}
	return b
}

// Event is one recorded plane action (migration phases, rebalance
// decisions) at virtual time At.
type Event struct {
	At   sim.Time
	What string
}

func (e Event) String() string { return fmt.Sprintf("%v %s", e.At, e.What) }

// Plane is the sharded data plane: a shared front-end (cluster node 0)
// driving one replication group per shard over a pooled replica fleet.
type Plane struct {
	Eng    *sim.Engine
	Cl     *cluster.Cluster
	Map    *Map
	cfg    Config
	client *cluster.Node
	pool   []*cluster.Node // replica hosts (cluster nodes 1..Hosts)
	tiers  []Tier          // pool tier labels (nil = untiered)
	shards []*Shard

	reb      *Rebalancer
	timeline []Event

	// staleSuppressed counts replica reads that raced a cutover and were
	// re-routed instead of served; staleServed counts reads actually
	// delivered from a superseded epoch (the invariant: always zero).
	staleSuppressed uint64
	staleServed     uint64

	putFree []*putRec // released put records, reused by Put

	open bool
}

// StoreSize returns the store window each node needs for this config.
func StoreSize(cfg Config) int {
	cfg.fill()
	return cfg.Shards * cfg.RegionSize
}

// New builds a sharded plane over its own cluster: 1 front-end client +
// cfg.Hosts pooled replica hosts, cfg.Shards groups placed by rendezvous
// hashing (or an explicit placement via Open). done fires when every
// shard's (empty) log header is durable on its replicas.
func New(eng *sim.Engine, cfg Config, done func(error)) *Plane {
	cfg.fill()
	ccfg := cluster.Config{
		Nodes:     cfg.Hosts + 1,
		StoreSize: StoreSize(cfg),
		Fabric:    cfg.Fabric,
		NIC:       cfg.NIC,
		Seed:      cfg.Seed,
	}
	if len(cfg.TierNIC) > 0 {
		base, tiers, overrides := cfg.NIC, cfg.HostTiers, cfg.TierNIC
		ccfg.NodeNIC = func(i int) rdma.Config { return tierNICFor(base, tiers, overrides, i) }
	}
	return Open(eng, cluster.New(eng, ccfg), nil, cfg, done)
}

// Open builds the plane over an existing cluster (node 0 = front-end,
// nodes 1.. = host pool). placement optionally pins every shard's replica
// hosts (indexes into the pool); nil selects rendezvous placement. done
// fires when every shard's log header is durable.
func Open(eng *sim.Engine, cl *cluster.Cluster, placement [][]int, cfg Config, done func(error)) *Plane {
	cfg.fill()
	p := &Plane{
		Eng:    eng,
		Cl:     cl,
		cfg:    cfg,
		client: cl.Client(),
		pool:   cl.Replicas(),
	}
	if len(p.pool) < cfg.Hosts {
		panic(fmt.Sprintf("shard: cluster has %d hosts, config needs %d", len(p.pool), cfg.Hosts))
	}
	if len(cfg.HostTiers) > 0 {
		if len(cfg.HostTiers) != cfg.Hosts {
			panic(fmt.Sprintf("shard: %d host tiers for %d hosts", len(cfg.HostTiers), cfg.Hosts))
		}
		p.tiers = append([]Tier(nil), cfg.HostTiers...)
	}
	if cfg.Boundaries != nil {
		p.Map = NewRangeMap(cfg.Boundaries)
	} else {
		p.Map = NewHashMap(cfg.Shards)
	}
	if placement != nil {
		if len(placement) != cfg.Shards {
			panic(fmt.Sprintf("shard: placement for %d shards, config has %d", len(placement), cfg.Shards))
		}
		for s, hosts := range placement {
			if len(hosts) != cfg.Replicas {
				panic(fmt.Sprintf("shard: shard %d placed on %d hosts, want %d", s, len(hosts), cfg.Replicas))
			}
			if err := p.Map.Place(s, hosts); err != nil {
				panic(err)
			}
		}
	} else if p.tiers != nil {
		if err := p.Map.PlaceAllTiered(cfg.Hosts, cfg.Replicas, p.tiers, cfg.Hints); err != nil {
			panic(err)
		}
	} else if err := p.Map.PlaceAll(cfg.Hosts, cfg.Replicas); err != nil {
		panic(err)
	}

	remaining := cfg.Shards
	var firstErr error
	oneOpen := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			p.open = firstErr == nil
			if done != nil {
				done(firstErr)
			}
		}
	}
	for sid := 0; sid < cfg.Shards; sid++ {
		p.shards = append(p.shards, p.buildShard(sid, oneOpen))
	}
	if cfg.Metrics != nil {
		cfg.Metrics.GaugeFunc("shard", "stale_suppressed", "plane", func() float64 {
			return float64(p.staleSuppressed)
		})
		cfg.Metrics.GaugeFunc("shard", "stale_served", "plane", func() float64 {
			return float64(p.staleServed)
		})
	}
	return p
}

// newBackend builds a group over the given pool hosts, in chain order.
func (p *Plane) newBackend(hosts []int) core.Backend {
	return p.cfg.NewBackend(p.Eng, p.client, p.hostNodes(hosts))
}

// hostNodes maps host indexes to their cluster nodes.
func (p *Plane) hostNodes(hosts []int) []*cluster.Node {
	out := make([]*cluster.Node, len(hosts))
	for i, h := range hosts {
		out[i] = p.pool[h]
	}
	return out
}

// buildShard wires shard sid's group and store over its placed hosts.
func (p *Plane) buildShard(sid int, opened func(error)) *Shard {
	hosts := p.Map.Placement(sid)
	s := &Shard{
		ID:       sid,
		plane:    p,
		base:     sid * p.cfg.RegionSize,
		label:    fmt.Sprintf("s%d", sid),
		replicas: hosts,
		former:   make(map[int]bool),
	}
	s.rep = &wal.CoreReplicator{G: p.newBackend(hosts)}
	// The epoch word starts at 0 everywhere; write it locally so the head's
	// view is explicit rather than implicit zeros.
	p.client.StoreWrite(s.base+epochOff, epochBytes(0))
	s.db = kvstore.Open(wal.NodeStore{N: p.client}, s.rep, kvstore.Config{
		LogBase:     s.base + regionHdr,
		LogSize:     p.cfg.LogSize,
		DataBase:    s.base + regionHdr + p.cfg.LogSize,
		DataSize:    p.cfg.RegionSize - regionHdr - p.cfg.LogSize,
		CommitEvery: p.cfg.CommitEvery,
		Seed:        p.cfg.Seed + int64(sid)*7919,
	}, opened)
	s.db.EnableReplicaReads(p.client, p.hostNodes(hosts))
	if p.cfg.CRAQ {
		s.db.EnableCRAQ()
	}
	if p.cfg.Metrics != nil {
		lbl := s.label
		s.putCount = p.cfg.Metrics.Counter("shard", "puts", lbl)
		s.putRefused = p.cfg.Metrics.Counter("shard", "puts_refused", lbl)
		s.putLat = p.cfg.Metrics.Histogram("shard", "put_latency_ns", lbl)
		p.cfg.Metrics.GaugeFunc("shard", "epoch", lbl, func() float64 { return float64(s.epoch) })
		p.cfg.Metrics.GaugeFunc("shard", "migrations", lbl, func() float64 { return float64(s.migrations) })
		if p.cfg.CRAQ {
			p.cfg.Metrics.GaugeFunc("shard", "craq_clean_reads", lbl, func() float64 {
				c, _ := s.db.CRAQStats()
				return float64(c)
			})
			p.cfg.Metrics.GaugeFunc("shard", "craq_dirty_reads", lbl, func() float64 {
				_, d := s.db.CRAQStats()
				return float64(d)
			})
		}
	}
	return s
}

// RegionConfig returns shard sid's kvstore layout — what a checker needs
// to Rebuild the shard's region from any node's bytes.
func (p *Plane) RegionConfig(sid int) kvstore.Config {
	base := sid * p.cfg.RegionSize
	return kvstore.Config{
		LogBase:  base + regionHdr,
		LogSize:  p.cfg.LogSize,
		DataBase: base + regionHdr + p.cfg.LogSize,
		DataSize: p.cfg.RegionSize - regionHdr - p.cfg.LogSize,
	}
}

// EpochWord reads shard sid's epoch word as stored on pool host h.
func (p *Plane) EpochWord(h, sid int) uint64 {
	b := p.pool[h].StoreBytes(sid*p.cfg.RegionSize+epochOff, 8)
	var e uint64
	for i := 7; i >= 0; i-- {
		e = e<<8 | uint64(b[i])
	}
	return e
}

// note records a timeline event at the current virtual time.
func (p *Plane) note(format string, args ...any) {
	what := fmt.Sprintf(format, args...)
	p.timeline = append(p.timeline, Event{At: p.Eng.Now(), What: what})
	if p.cfg.Spans != nil {
		p.cfg.Spans.Annotate("shard", what)
	}
}

// Timeline returns the recorded plane events (migration phases, rebalance
// decisions) in order.
func (p *Plane) Timeline() []Event {
	out := make([]Event, len(p.timeline))
	copy(out, p.timeline)
	return out
}

// Shards returns the shard count.
func (p *Plane) Shards() int { return len(p.shards) }

// Shard returns shard sid.
func (p *Plane) Shard(sid int) *Shard { return p.shards[sid] }

// Client returns the front-end node.
func (p *Plane) Client() *cluster.Node { return p.client }

// Pool returns the replica host pool (host index i = cluster node i+1).
func (p *Plane) Pool() []*cluster.Node { return p.pool }

// StaleSuppressed counts replica reads re-routed because a cutover landed
// while they were in flight.
func (p *Plane) StaleSuppressed() uint64 { return p.staleSuppressed }

// StaleServed counts reads delivered from a superseded epoch — the
// stale-epoch invariant demands this stays zero.
func (p *Plane) StaleServed() uint64 { return p.staleServed }

// Route returns the shard owning key.
func (p *Plane) Route(key string) *Shard { return p.shards[p.Map.Route(key)] }

// Put stores key=value on the owning shard's replica chain; done fires at
// the shard's durability point. Returns the owning shard id.
func (p *Plane) Put(key string, value []byte, done func(error)) (int, error) {
	if !p.open {
		return 0, ErrNotOpen
	}
	s := p.Route(key)
	s.ops++
	s.windowOps++
	start := p.Eng.Now()
	issueEpoch := s.epoch
	var sp *span.Span
	if p.cfg.Spans != nil {
		sp = p.cfg.Spans.Start("shard-put", s.label)
		sp.SetShardEpoch(s.ID, issueEpoch)
	}
	if s.putCount != nil {
		s.putCount.Inc()
	}
	r := p.newPut()
	r.s, r.start, r.issueEpoch, r.sp, r.done = s, start, issueEpoch, sp, done
	err := s.db.Put(key, value, r.ack)
	if err != nil {
		// Synchronous refusal (ring-full backpressure): the callback never
		// fires, so release the record and settle the span and counters here.
		p.releasePut(r)
		if s.putRefused != nil {
			s.putRefused.Inc()
		}
		if sp != nil {
			sp.Annotate("error", err.Error())
			sp.End()
		}
	}
	return s.ID, err
}

// putRec carries one Put from issue to its durability ack. Records are
// pooled per Plane; ack is bound once, when the record is created.
type putRec struct {
	s          *Shard
	start      sim.Time
	issueEpoch uint64
	sp         *span.Span
	done       func(error)
	ack        func(error)
	released   bool
}

// newPut takes a record from the free list, or builds one with its ack bound.
func (p *Plane) newPut() *putRec {
	if n := len(p.putFree); n > 0 {
		r := p.putFree[n-1]
		p.putFree = p.putFree[:n-1]
		r.released = false
		return r
	}
	r := &putRec{}
	r.ack = r.acked
	return r
}

// releasePut poisons r and returns it to the free list.
func (p *Plane) releasePut(r *putRec) {
	*r = putRec{ack: r.ack, released: true}
	p.putFree = append(p.putFree, r)
}

// acked is a put's durability completion: it copies the record out and
// releases it before any of the put's observers run.
func (r *putRec) acked(err error) {
	if r.released {
		panic("shard: completion delivered to a released put record")
	}
	s, start, issueEpoch, sp, done := r.s, r.start, r.issueEpoch, r.sp, r.done
	p := s.plane
	p.releasePut(r)
	if err == nil {
		lat := p.Eng.Now().Sub(start)
		if s.latEWMA == 0 {
			s.latEWMA = lat
		} else {
			s.latEWMA = (s.latEWMA*7 + lat) / 8
		}
		if s.putLat != nil {
			s.putLat.Observe(lat)
		}
	}
	if sp != nil {
		if s.epoch != issueEpoch {
			// The op's ack observed a cutover; the span is explicitly
			// marked so the fence invariant knows this was seen.
			sp.MarkCrossedFence()
		}
		if err != nil {
			sp.Annotate("error", err.Error())
		}
		sp.End()
	}
	if done != nil {
		done(err)
	}
}

// Delete removes key from its owning shard.
func (p *Plane) Delete(key string, done func(error)) (int, error) {
	if !p.open {
		return 0, ErrNotOpen
	}
	s := p.Route(key)
	s.ops++
	s.windowOps++
	return s.ID, s.db.Delete(key, done)
}

// Get reads key from the owning shard's head memtable.
func (p *Plane) Get(key string) ([]byte, bool) {
	s := p.Route(key)
	return s.db.Get(key)
}

// GetFromReplica reads key's committed value from one of the owning
// shard's replicas via a one-sided RDMA READ, validating the shard epoch:
// if a migration cut over while the read was in flight, the stale result is
// suppressed and the read retried against the new owner group — a key is
// never served from a superseded epoch.
func (p *Plane) GetFromReplica(key string, done func([]byte, error)) {
	p.getFromReplica(key, 0, done)
}

const maxReadRetries = 3

func (p *Plane) getFromReplica(key string, attempt int, done func([]byte, error)) {
	s := p.Route(key)
	issueEpoch := s.epoch
	s.db.GetFromReplica(key, 0, func(val []byte, err error) {
		if s.epoch != issueEpoch {
			// Cutover raced the read: the bytes came from the old owner.
			p.staleSuppressed++
			if attempt+1 < maxReadRetries {
				p.getFromReplica(key, attempt+1, done)
				return
			}
			p.staleServed++ // would have to serve stale — counted, never hidden
		}
		done(val, err)
	})
}

// ReadCRAQ reads key from replica r of its owning shard under the CRAQ
// clean/dirty protocol (Config.CRAQ must be set): clean keys are served from
// r's NVM directly, dirty keys forward to the tail and serve the newest
// acked version. r = -1 selects the tail. The shard epoch is validated the
// same way as GetFromReplica — a read racing a migration cutover is
// re-issued rather than served stale.
func (p *Plane) ReadCRAQ(key string, r int, done func(val []byte, clean bool, err error)) {
	if !p.open {
		done(nil, false, ErrNotOpen)
		return
	}
	p.readCRAQ(key, r, 0, done)
}

func (p *Plane) readCRAQ(key string, r, attempt int, done func(val []byte, clean bool, err error)) {
	s := p.Route(key)
	rr := r
	if rr < 0 {
		rr = s.db.TailReplica()
	}
	issueEpoch := s.epoch
	s.db.GetCRAQ(key, rr, func(val []byte, clean bool, err error) {
		if s.epoch != issueEpoch {
			p.staleSuppressed++
			if attempt+1 < maxReadRetries {
				p.readCRAQ(key, r, attempt+1, done)
				return
			}
			p.staleServed++
		}
		done(val, clean, err)
	})
}

// Commit asks every shard to drain its WAL executor; done fires when all
// are drained (first error wins).
func (p *Plane) Commit(done func(error)) {
	remaining := len(p.shards)
	var firstErr error
	for _, s := range p.shards {
		s.db.Commit(func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(firstErr)
			}
		})
	}
}

// Flush issues a gFLUSH on every shard's group; done fires when all acks
// arrive (first error wins).
func (p *Plane) Flush(done func(error)) {
	remaining := len(p.shards)
	var firstErr error
	for _, s := range p.shards {
		s.rep.Flush(func(res core.Result) {
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
			}
			remaining--
			if remaining == 0 && done != nil {
				done(firstErr)
			}
		})
	}
}

// FusionStats sums (batches, fused ops) over the shards whose backend fuses
// WQE chains (HyperLoop groups); other backends contribute zero.
func (p *Plane) FusionStats() (batches, ops uint64) {
	for _, s := range p.shards {
		if f, ok := s.rep.G.(interface{ FusionStats() (uint64, uint64) }); ok {
			b, o := f.FusionStats()
			batches += b
			ops += o
		}
	}
	return batches, ops
}

// Close stops the rebalancer and every shard's group.
func (p *Plane) Close() {
	if p.reb != nil {
		p.reb.Stop()
	}
	for _, s := range p.shards {
		s.rep.G.Close()
	}
	p.open = false
}

func (p *Plane) String() string {
	return fmt.Sprintf("shard.Plane{shards=%d hosts=%d replicas=%d %v}",
		len(p.shards), len(p.pool), p.cfg.Replicas, p.Map.Mode())
}
