package experiments

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/docstore"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/locks"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// AppParams configures the application benchmarks (§6.2: 3 replicas,
// 10:1 process-to-core co-location, YCSB).
type AppParams struct {
	System         System
	Workload       ycsb.Workload
	Records        int64 // preloaded keys (default 5000)
	Ops            int   // measured operations (default 20000)
	TenantsPerCore int   // co-located load (default 10)
	ValueSize      int   // bytes (default 1024, as §6.2)
	Seed           int64
	// Metrics, when non-nil, attaches the observability plane to the cell:
	// cluster instrumentation, an op ledger, and a virtual-clock sampler.
	// Every hook only observes, so latencies match an uninstrumented run.
	Metrics *metrics.Registry
}

func (p *AppParams) fill() {
	if p.Records <= 0 {
		p.Records = 5000
	}
	if p.Ops <= 0 {
		p.Ops = 20000
	}
	if p.TenantsPerCore < 0 {
		p.TenantsPerCore = 0
	}
	if p.ValueSize <= 0 {
		p.ValueSize = 1024
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Workload.Name == "" {
		p.Workload = ycsb.WorkloadA
	}
}

// RocksDBResult is one Figure 11 bar group: update-operation latency for a
// replicated RocksDB variant.
type RocksDBResult struct {
	System  string
	Latency stats.Summary
	// BackupCPU is the mean replica-host utilization attributable to the
	// datapath (in percent of one core).
	BackupCPU float64
}

// RocksDBSweep runs RocksDB for every parameter set (e.g. the three
// Figure 11 system variants), fanning the runs out over the configured
// worker pool. Results come back in input order.
func RocksDBSweep(ps []AppParams) ([]RocksDBResult, error) {
	return RunParallel(Parallelism(), len(ps), func(i int) (RocksDBResult, error) {
		return RocksDB(ps[i])
	})
}

// RocksDB runs the Figure 11 experiment: a replicated key-value store under
// YCSB (update operations measured), with co-located background load, for
// one system variant.
func RocksDB(p AppParams) (RocksDBResult, error) {
	p.fill()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 64 << 20, Seed: p.Seed})

	be := newBackend(p.System, cl)
	defer be.Close()
	rep, failed := wal.CoreReplicator{G: be}, be.Failed

	ready := false
	db := kvstore.Open(wal.NodeStore{N: cl.Client()}, rep,
		kvstore.Config{LogSize: 16 << 20, DataSize: 32 << 20, Seed: p.Seed}, func(err error) {
			if err == nil {
				ready = true
			}
		})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(10*sim.Second)) {
		return RocksDBResult{}, fmt.Errorf("rocksdb: open stalled (%v)", failed())
	}

	// Preload.
	vals := ycsb.NewValueGenerator(p.ValueSize, p.Seed)
	loaded := 0
	for i := int64(0); i < p.Records; i++ {
		if err := db.Put(ycsb.KeyName(i), vals.Next(i), func(error) { loaded++ }); err != nil {
			return RocksDBResult{}, err
		}
	}
	want := int(p.Records)
	if !eng.RunUntil(func() bool { return loaded >= want || failed() != nil }, eng.Now().Add(120*sim.Second)) {
		return RocksDBResult{}, fmt.Errorf("rocksdb: preload stalled %d/%d (%v)", loaded, want, failed())
	}

	// Co-located load on every node, the RocksDB head included: the paper
	// co-locates the replicated RocksDB processes themselves with I/O
	// intensive instances on the same socket, so even the HyperLoop
	// variant pays client-side scheduling tax — that is why its app-level
	// gap (5.7×/24.2×) is far smaller than the microbenchmark's.
	if p.TenantsPerCore > 0 {
		for _, node := range cl.Nodes {
			defer cpusched.AddTenants(eng, node.Host, p.TenantsPerCore*node.Host.Cores(),
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork())()
		}
	}
	eng.RunFor(10 * sim.Millisecond) // let hogs stagger in
	for _, node := range cl.Replicas() {
		node.Host.ResetAccounting()
	}

	var acked *metrics.Counter
	var mlat *metrics.Histogram
	var sampler *metrics.Sampler
	if p.Metrics != nil {
		label := "rocksdb-" + sysLabel(p.System)
		cluster.Instrument(p.Metrics, cl, label)
		acked = p.Metrics.Counter("app", "ops_acked", label)
		mlat = p.Metrics.Histogram("app", "put_latency_ns", label)
		sampler = metrics.NewSampler(eng, p.Metrics, 100*sim.Microsecond)
	}

	// The RocksDB write path itself costs client CPU (memtable insert, WAL
	// encode) before the replication call.
	const rocksWriteCPU = 2 * sim.Microsecond
	gen := ycsb.NewGenerator(p.Workload, p.Records, p.Seed)
	hist := stats.NewHistogram()
	completed, issuedOps := 0, 0
	var issue func()
	issue = func() {
		if issuedOps >= p.Ops {
			return
		}
		issuedOps++
		op := gen.Next()
		switch op.Type {
		case ycsb.Read:
			db.Get(ycsb.KeyName(op.Key))
			completed++
			issue()
		case ycsb.Scan:
			db.Scan(ycsb.KeyName(op.Key), op.ScanLen)
			completed++
			issue()
		case ycsb.ReadModifyWrite, ycsb.Update, ycsb.Insert:
			if op.Type == ycsb.ReadModifyWrite {
				db.Get(ycsb.KeyName(op.Key))
			}
			start := eng.Now()
			cl.Client().Host.Submit("rocksdb-put", rocksWriteCPU, func() {
				err := db.Put(ycsb.KeyName(op.Key), vals.Next(op.Key), func(err error) {
					if err == nil {
						hist.Record(eng.Now().Sub(start))
						if mlat != nil {
							acked.Inc()
							mlat.Observe(eng.Now().Sub(start))
						}
					}
					completed++
					issue()
				})
				if err != nil {
					completed++
					issue()
				}
			})
		}
	}
	issue()
	if !eng.RunUntil(func() bool { return completed >= p.Ops || failed() != nil }, eng.Now().Add(600*sim.Second)) {
		return RocksDBResult{}, fmt.Errorf("rocksdb: run stalled %d/%d (%v)", completed, p.Ops, failed())
	}
	if failed() != nil {
		return RocksDBResult{}, failed()
	}
	if sampler != nil {
		sampler.Stop()
		p.Metrics.Sample(eng.Now())
	}

	// Datapath CPU: utilization above the hog baseline. With TenantsPerCore
	// hogs every core is otherwise saturated, so report handler activations
	// scaled by cost instead: utilization is only meaningful without hogs.
	var cpu float64
	for _, node := range cl.Replicas() {
		cpu += node.Host.Utilization() * float64(node.Host.Cores())
	}
	cpu /= float64(len(cl.Replicas()))
	return RocksDBResult{
		System:    p.System.String(),
		Latency:   hist.Summarize(),
		BackupCPU: cpu * 100,
	}, nil
}

// MongoResult is one Figure 12 bar: per-workload write latency for a
// MongoDB-like store.
type MongoResult struct {
	Workload  string
	System    string
	Latency   stats.Summary
	BackupCPU float64
}

// MongoDBSweep runs MongoDB for every parameter set (the Figure 12
// workload × system grid), fanning the runs out over the configured worker
// pool. Results come back in input order.
func MongoDBSweep(ps []AppParams) ([]MongoResult, error) {
	return RunParallel(Parallelism(), len(ps), func(i int) (MongoResult, error) {
		return MongoDB(ps[i])
	})
}

// MongoDB runs the Figure 12 experiment: the document store under a YCSB
// workload, native (replica-CPU polling) vs HyperLoop-enabled replication.
// Insert/update/modify operations are timed (reads are served from the
// primary's memory in both variants and are not affected by replication).
func MongoDB(p AppParams) (MongoResult, error) {
	p.fill()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 64 << 20, Seed: p.Seed})

	be := newBackend(p.System, cl)
	defer be.Close()
	failed := be.Failed
	backend := docstore.Backend{Rep: wal.CoreReplicator{G: be}, Replicas: cl.Replicas()}
	if g, ok := be.(*core.Group); ok {
		backend.Locks = locks.New(g, eng, 60<<20, locks.Config{})
	}

	ready := false
	st := docstore.Open(eng, cl.Client(), backend, docstore.Config{
		JournalSize: 16 << 20,
		DataSize:    32 << 20,
		LockBase:    60 << 20,
		Locking:     p.System == HyperLoop,
		Seed:        p.Seed,
	}, func(err error) {
		if err == nil {
			ready = true
		}
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(10*sim.Second)) {
		return MongoResult{}, fmt.Errorf("mongodb: open stalled (%v)", failed())
	}

	// Preload documents.
	doc := func(k int64) docstore.Document {
		return docstore.Document{"field0": fmt.Sprintf("%0*d", p.ValueSize/2, k)}
	}
	loaded := 0
	for i := int64(0); i < p.Records; i++ {
		if err := st.Insert(ycsb.KeyName(i), doc(i), func(error) { loaded++ }); err != nil {
			return MongoResult{}, err
		}
	}
	if !eng.RunUntil(func() bool { return loaded >= int(p.Records) || failed() != nil }, eng.Now().Add(300*sim.Second)) {
		return MongoResult{}, fmt.Errorf("mongodb: preload stalled %d/%d (%v)", loaded, p.Records, failed())
	}

	// Multi-tenant co-location on all server nodes (primaries share servers
	// with many other instances in §6.2; the client node hosts the store's
	// front end, so its contention matters too).
	if p.TenantsPerCore > 0 {
		for _, node := range cl.Nodes {
			defer cpusched.AddTenants(eng, node.Host, p.TenantsPerCore*node.Host.Cores(),
				cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork())()
		}
	}
	eng.RunFor(10 * sim.Millisecond)
	for _, node := range cl.Replicas() {
		node.Host.ResetAccounting()
	}

	var acked *metrics.Counter
	var mlat *metrics.Histogram
	var sampler *metrics.Sampler
	if p.Metrics != nil {
		label := "mongo-" + sysLabel(p.System)
		cluster.Instrument(p.Metrics, cl, label)
		acked = p.Metrics.Counter("app", "ops_acked", label)
		mlat = p.Metrics.Histogram("app", "write_latency_ns", label)
		sampler = metrics.NewSampler(eng, p.Metrics, 100*sim.Microsecond)
	}

	gen := ycsb.NewGenerator(p.Workload, p.Records, p.Seed)
	hist := stats.NewHistogram()
	completed, issuedOps := 0, 0
	var issue func()
	issue = func() {
		if issuedOps >= p.Ops {
			return
		}
		issuedOps++
		op := gen.Next()
		key := ycsb.KeyName(op.Key)
		switch op.Type {
		case ycsb.Read:
			st.Find(key)
			completed++
			issue()
		case ycsb.Scan:
			st.Scan(key, op.ScanLen)
			completed++
			issue()
		default: // Update, Insert, ReadModifyWrite
			if op.Type == ycsb.ReadModifyWrite {
				st.Find(key)
			}
			start := eng.Now()
			fn := st.Update
			if op.Type == ycsb.Insert {
				fn = st.Insert
			}
			err := fn(key, docstore.Document{"field1": "updated"}, func(err error) {
				if err == nil {
					hist.Record(eng.Now().Sub(start))
					if mlat != nil {
						acked.Inc()
						mlat.Observe(eng.Now().Sub(start))
					}
				}
				completed++
				issue()
			})
			if err != nil {
				completed++
				issue()
			}
		}
	}
	issue()
	if !eng.RunUntil(func() bool { return completed >= p.Ops || failed() != nil }, eng.Now().Add(900*sim.Second)) {
		return MongoResult{}, fmt.Errorf("mongodb: run stalled %d/%d (%v)", completed, p.Ops, failed())
	}
	if failed() != nil {
		return MongoResult{}, failed()
	}
	if sampler != nil {
		sampler.Stop()
		p.Metrics.Sample(eng.Now())
	}
	var cpu float64
	for _, node := range cl.Replicas() {
		cpu += node.Host.Utilization() * float64(node.Host.Cores())
	}
	cpu /= float64(len(cl.Replicas()))
	return MongoResult{
		Workload:  p.Workload.Name,
		System:    p.System.String(),
		Latency:   hist.Summarize(),
		BackupCPU: cpu * 100,
	}, nil
}

// --- §6.2 scenarios ---

// appSize is the preloaded-record and measured-op count of a §6.2 cell.
func appSize(e *Env) (records int64, ops int) {
	if e.Quick {
		return 300, 3000
	}
	return 2000, 20000
}

func fig11Scenario(e *Env) error {
	e.Println("=== Figure 11: replicated RocksDB, YCSB-A updates, 10:1 co-location ===")
	records, ops := appSize(e)
	var ps []AppParams
	for _, sys := range []System{HyperLoop, NaiveEvent, NaivePolling} {
		ps = append(ps, AppParams{System: sys, Records: records, Ops: ops, TenantsPerCore: 10, Seed: e.Seed})
	}
	results, err := RocksDBSweep(ps)
	if err != nil {
		return err
	}
	t := stats.NewTable("system", "avg", "p95", "p99", "p99-vs-HL")
	hlP99 := results[0].Latency.P99
	for _, r := range results {
		t.AddRow(r.System, ms(r.Latency.Mean), ms(r.Latency.P95), ms(r.Latency.P99),
			fmt.Sprintf("%.1fx", float64(r.Latency.P99)/float64(hlP99)))
	}
	e.Table(t)
	return nil
}

func fig12Scenario(e *Env) error {
	e.Println("=== Figure 12: MongoDB-style store, YCSB A/B/D/E/F, native vs HyperLoop ===")
	records, ops := appSize(e)
	names := []string{"A", "B", "D", "E", "F"}
	var ps []AppParams
	for _, name := range names {
		for _, sys := range []System{NaivePolling, HyperLoop} {
			ps = append(ps, AppParams{
				System: sys, Workload: ycsb.Workloads[name],
				Records: records, Ops: ops, TenantsPerCore: 10, Seed: e.Seed,
			})
		}
	}
	results, err := MongoDBSweep(ps)
	if err != nil {
		return err
	}
	t := stats.NewTable("workload", "native-avg", "native-p99", "HL-avg", "HL-p99", "avg-cut", "gap-cut")
	for ni, name := range names {
		nv, hl := results[2*ni].Latency, results[2*ni+1].Latency
		avgCut := 100 * (1 - float64(hl.Mean)/float64(nv.Mean))
		gapCut := 100 * (1 - float64(hl.P99-hl.Mean)/float64(nv.P99-nv.Mean))
		t.AddRow(name, ms(nv.Mean), ms(nv.P99), ms(hl.Mean), ms(hl.P99),
			fmt.Sprintf("%.0f%%", avgCut), fmt.Sprintf("%.0f%%", gapCut))
	}
	e.Table(t)
	e.Println("(avg-cut: average write-latency reduction; gap-cut: avg<->p99 gap reduction)")
	return nil
}
