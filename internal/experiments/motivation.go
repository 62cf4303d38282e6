package experiments

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/docstore"
	"hyperloop/internal/metrics"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// MotivationParams configures the §2.2 experiment (Figure 2): R MongoDB
// replica-sets co-located on three servers, driven by YCSB.
type MotivationParams struct {
	ReplicaSets   int // groups co-located on the 3 servers (Fig 2a: 9..27)
	Cores         int // cores per server (Fig 2b: 2..16)
	ThreadsPerSet int // concurrent YCSB client threads per set (default 4)
	OpsPerSet     int // measured ops per set (default 2000)
	Records       int64
	Seed          int64
	// Metrics, when non-nil, attaches the observability plane to the cell:
	// cluster instrumentation, an op ledger, and a virtual-clock sampler.
	// Every hook only observes, so latencies match an uninstrumented run.
	Metrics *metrics.Registry
}

func (p *MotivationParams) fill() {
	if p.ReplicaSets <= 0 {
		p.ReplicaSets = 9
	}
	if p.Cores <= 0 {
		p.Cores = 16
	}
	if p.ThreadsPerSet <= 0 {
		p.ThreadsPerSet = 4
	}
	if p.OpsPerSet <= 0 {
		p.OpsPerSet = 2000
	}
	if p.Records <= 0 {
		p.Records = 200
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// MotivationResult is one Figure 2 point.
type MotivationResult struct {
	ReplicaSets     int
	Cores           int
	Latency         stats.Summary // insert/update latency across all sets
	ContextSwitches uint64        // total across the 3 servers (normalize externally)
	Utilization     float64       // mean server CPU utilization
}

// Per-op CPU demands calibrated to a mongod-class stack: the primary parses
// and executes the query; secondaries apply the oplog.
const (
	mongoParse   = 100 * sim.Microsecond
	mongoHandler = 25 * sim.Microsecond
)

// MotivationSweep runs Motivation for every parameter set, fanning the
// points out over the configured worker pool — the Figure 2(a)/2(b)
// sweeps. Results come back in input order, identical to a serial run.
func MotivationSweep(ps []MotivationParams) ([]MotivationResult, error) {
	return RunParallel(Parallelism(), len(ps), func(i int) (MotivationResult, error) {
		return Motivation(ps[i])
	})
}

// Motivation reproduces Figure 2: native (replica-CPU) replication with R
// replica-sets sharing 3 servers. Latency and context switches grow with R
// (2a) and shrink with added cores (2b).
func Motivation(p MotivationParams) (MotivationResult, error) {
	p.fill()
	eng := sim.NewEngine()
	const stride = 8 << 20 // per-set region: 4 MiB journal + 4 MiB data
	cl := cluster.New(eng, cluster.Config{
		Nodes:     3,
		StoreSize: stride * (p.ReplicaSets + 1),
		Host:      cpusched.Config{Cores: p.Cores, Seed: p.Seed},
		Seed:      p.Seed,
	})
	servers := cl.Nodes
	type set struct {
		st  *docstore.Store
		g   *naive.Group
		gen *ycsb.Generator
	}
	sets := make([]*set, p.ReplicaSets)
	ready := 0
	for i := range sets {
		primary := servers[i%3]
		backups := []*cluster.Node{servers[(i+1)%3], servers[(i+2)%3]}
		g := naive.NewWithNodes(eng, primary, backups, naive.Config{
			Mode:       naive.Event,
			HandlerCPU: mongoHandler,
		})
		base := i * stride
		st := docstore.Open(eng, primary, docstore.Backend{
			Rep:      wal.CoreReplicator{G: g},
			Replicas: backups,
		}, docstore.Config{
			JournalBase: base,
			JournalSize: 4 << 20,
			DataBase:    base + 4<<20,
			DataSize:    4<<20 - 4096,
			LockBase:    base + stride - 4096,
			QueryParse:  mongoParse,
			Seed:        p.Seed + int64(i),
		}, func(err error) {
			if err == nil {
				ready++
			}
		})
		sets[i] = &set{st: st, g: g,
			gen: ycsb.NewGenerator(ycsb.WorkloadA, p.Records, p.Seed+int64(i))}
	}
	if !eng.RunUntil(func() bool { return ready >= len(sets) }, eng.Now().Add(60*sim.Second)) {
		return MotivationResult{}, fmt.Errorf("motivation: %d/%d sets ready", ready, len(sets))
	}

	// Preload each set.
	doc := docstore.Document{"field0": string(make([]byte, 256))}
	loaded := 0
	wantLoad := 0
	for _, s := range sets {
		for k := int64(0); k < p.Records; k++ {
			wantLoad++
			if err := s.st.Insert(ycsb.KeyName(k), doc, func(error) { loaded++ }); err != nil {
				return MotivationResult{}, err
			}
		}
	}
	if !eng.RunUntil(func() bool { return loaded >= wantLoad }, eng.Now().Add(600*sim.Second)) {
		return MotivationResult{}, fmt.Errorf("motivation: preload stalled %d/%d", loaded, wantLoad)
	}

	for _, srv := range servers {
		srv.Host.ResetAccounting()
	}

	var acked *metrics.Counter
	var mlat *metrics.Histogram
	var sampler *metrics.Sampler
	if p.Metrics != nil {
		label := fmt.Sprintf("mot-sets%d-cores%d", p.ReplicaSets, p.Cores)
		cluster.Instrument(p.Metrics, cl, label)
		acked = p.Metrics.Counter("motivation", "ops_acked", label)
		mlat = p.Metrics.Histogram("motivation", "update_latency_ns", label)
		sampler = metrics.NewSampler(eng, p.Metrics, 100*sim.Microsecond)
	}

	// Drive every set with ThreadsPerSet closed loops; measure write ops.
	hist := stats.NewHistogram()
	totalWant := p.OpsPerSet * len(sets)
	completed := 0
	var anyErr error
	for _, s := range sets {
		s := s
		issued := 0
		var worker func()
		worker = func() {
			if issued >= p.OpsPerSet || anyErr != nil {
				return
			}
			issued++
			op := s.gen.Next()
			key := ycsb.KeyName(op.Key)
			if op.Type == ycsb.Read {
				s.st.Find(key)
				completed++
				worker()
				return
			}
			start := eng.Now()
			err := s.st.Update(key, docstore.Document{"field1": "u"}, func(err error) {
				if err != nil && anyErr == nil {
					anyErr = err
				}
				hist.Record(eng.Now().Sub(start))
				if mlat != nil {
					acked.Inc()
					mlat.Observe(eng.Now().Sub(start))
				}
				completed++
				worker()
			})
			if err != nil {
				anyErr = err
			}
		}
		for w := 0; w < p.ThreadsPerSet; w++ {
			worker()
		}
	}
	if !eng.RunUntil(func() bool { return completed >= totalWant || anyErr != nil },
		eng.Now().Add(3600*sim.Second)) {
		return MotivationResult{}, fmt.Errorf("motivation: run stalled %d/%d", completed, totalWant)
	}
	if anyErr != nil {
		return MotivationResult{}, anyErr
	}
	if sampler != nil {
		sampler.Stop()
		p.Metrics.Sample(eng.Now())
	}

	var switches uint64
	var util float64
	for _, srv := range servers {
		switches += srv.Host.ContextSwitches()
		util += srv.Host.Utilization()
	}
	return MotivationResult{
		ReplicaSets:     p.ReplicaSets,
		Cores:           p.Cores,
		Latency:         hist.Summarize(),
		ContextSwitches: switches,
		Utilization:     util / 3,
	}, nil
}

// fig2Scenario renders one half of Figure 2: latency, normalised context
// switches and utilisation along one axis — replica-sets (2a) or cores per
// server (2b) — of the co-location sweep.
func fig2Scenario(title, axis string, full, quick []int, cell func(x int) MotivationParams) func(*Env) error {
	return func(e *Env) error {
		e.Printf("=== %s ===\n", title)
		xs, opsPerSet := full, 2000
		if e.Quick {
			xs, opsPerSet = quick, 400
		}
		ps := make([]MotivationParams, len(xs))
		for i, x := range xs {
			ps[i] = cell(x)
			ps[i].OpsPerSet, ps[i].Seed = opsPerSet, e.Seed
		}
		results, err := MotivationSweep(ps)
		if err != nil {
			return err
		}
		var maxSw uint64
		for _, r := range results {
			if r.ContextSwitches > maxSw {
				maxSw = r.ContextSwitches
			}
		}
		t := stats.NewTable(axis, "avg", "p95", "p99", "ctx-switches(norm)", "util")
		for i, r := range results {
			t.AddRow(fmt.Sprint(xs[i]),
				ms(r.Latency.Mean), ms(r.Latency.P95), ms(r.Latency.P99),
				fmt.Sprintf("%.2f", float64(r.ContextSwitches)/float64(maxSw)),
				fmt.Sprintf("%.2f", r.Utilization))
		}
		e.Table(t)
		return nil
	}
}
