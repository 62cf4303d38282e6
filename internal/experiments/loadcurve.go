package experiments

import (
	"flag"
	"fmt"

	"hyperloop/internal/load"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

// Load-curve experiment: the open-loop serving plane driven through and past
// saturation. For each system we first probe the saturation point (admission
// on, offered load far beyond capacity — the admitted-op completion rate IS
// the capacity), then sweep offered load across multiples of it with the
// admission controller on and off. The curve shows the paper's serving-plane
// story: with a bounded queue in front of each group leader, goodput holds
// at capacity past the knee while the uncontrolled baseline's hidden queue
// pushes open-loop p99.9 out by orders of magnitude.

// LoadCurveParams selects one load-curve sweep.
type LoadCurveParams struct {
	// Systems to sweep (default hyperloop, naive).
	Systems []string
	// Mults are the offered-load multiples of measured saturation swept per
	// system (default 0.5, 0.75, 1.0, 1.25, 1.5).
	Mults []float64
	// FusionDepths is the WQE-chain fusion sweep run at saturation on the
	// HyperLoop arm (default 1, 2, 4, 8; nil-able via Quick).
	FusionDepths []int
	// Clients is the modeled connection-id space (default 1<<20 — the
	// million-client population is the normal case).
	Clients int
	// Duration is the arrival horizon per point (default 5ms; Quick 2ms).
	Duration sim.Duration
	// Arrival is the arrival process for curve points (default "poisson").
	Arrival string
	Seed    int64
	// Workers is the engine worker count inside each point's partitioned run.
	Workers int
	// Quick shrinks the sweep for CI: 3 mults, 2 fusion depths.
	Quick bool
}

func (p *LoadCurveParams) fill() {
	if len(p.Systems) == 0 {
		p.Systems = []string{"hyperloop", "naive"}
	}
	if len(p.Mults) == 0 {
		if p.Quick {
			p.Mults = []float64{0.5, 1.0, 1.5}
		} else {
			p.Mults = []float64{0.5, 0.75, 1.0, 1.25, 1.5}
		}
	}
	if len(p.FusionDepths) == 0 {
		if p.Quick {
			p.FusionDepths = []int{1, 4}
		} else {
			p.FusionDepths = []int{1, 2, 4, 8}
		}
	}
	if p.Clients <= 0 {
		p.Clients = 1 << 20
	}
	if p.Duration <= 0 {
		if p.Quick {
			p.Duration = 2 * sim.Millisecond
		} else {
			p.Duration = 5 * sim.Millisecond
		}
	}
	if p.Arrival == "" {
		p.Arrival = "poisson"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// curveSLO is the open-loop latency bound an op must meet to count toward
// goodput, sized so a full bounded queue at measured capacity still clears.
const curveSLO = 500 * sim.Microsecond

// curveAdmission is the controller setting every curve point shares: a
// shallow bounded queue (sojourn under the SLO at capacity), a modest
// inflight window, and batch dispatch so same-instant runs hit WQE fusion.
var curveAdmission = load.AdmissionConfig{
	QueueDepth:    8,
	MaxInflight:   16,
	DispatchBatch: 8,
	DispatchEvery: 2 * sim.Microsecond,
}

// probeOffered is the saturation probe's offered load, far above the
// serving capacity any configuration here can reach.
const probeOffered = 2_000_000.0

// LoadPoint is one (system, admission, offered-load) cell of the curve.
type LoadPoint struct {
	System    string
	Admission bool
	// Mult is the offered-load multiple of the system's measured saturation
	// (0 for the probe itself).
	Mult float64
	load.Result
}

// FusionPoint is one fusion-depth cell, run at saturation on HyperLoop.
type FusionPoint struct {
	Depth int
	load.Result
}

// LoadCurveResult is the full sweep.
type LoadCurveResult struct {
	// CapacityKops is each system's measured saturation throughput.
	CapacityKops map[string]float64
	Points       []LoadPoint
	Fusion       []FusionPoint
}

func (p LoadCurveParams) config(system string, offered float64, admissionOn bool) load.Config {
	cfg := load.Config{
		System:         system,
		Groups:         2,
		HostsPerGroup:  3,
		ShardsPerGroup: 1,
		Replicas:       3,
		RegionSize:     1 << 18,
		Workers:        p.Workers,
		Seed:           p.Seed,
		Clients:        p.Clients,
		Arrival:        p.Arrival,
		OfferedLoad:    offered,
		Duration:       p.Duration,
		SLO:            curveSLO,
		Admission:      curveAdmission,
	}
	cfg.Admission.Enabled = admissionOn
	if system == "hyperloop" {
		cfg.FusionDepth = 4
		cfg.DoorbellCost = 200 * sim.Nanosecond
	}
	return cfg
}

// Saturate measures one system's serving capacity: admission on, offered
// load far past any reachable throughput, capacity = admitted completions
// over the horizon.
func (p LoadCurveParams) Saturate(system string) load.Result {
	p.fill()
	return load.Run(p.config(system, probeOffered, true))
}

// RunLoadCurve measures saturation per system and sweeps offered load across
// Mults of it with admission on and off, plus the fusion-depth sweep at
// saturation. Points fan over the configured worker pool; deterministic for a given seed
// at any Workers or pool size.
func RunLoadCurve(p LoadCurveParams) LoadCurveResult {
	p.fill()
	res := LoadCurveResult{CapacityKops: make(map[string]float64)}

	// Phase 1: saturation probes (parallel across systems).
	caps, err := RunParallel(Parallelism(), len(p.Systems), func(i int) (float64, error) {
		return p.Saturate(p.Systems[i]).TputKops, nil
	})
	if err != nil {
		panic(fmt.Sprintf("load curve: probe: %v", err))
	}
	for i, sys := range p.Systems {
		res.CapacityKops[sys] = caps[i]
	}

	// Phase 2: the curve grid — every (system, admission, mult) cell.
	type cell struct {
		sys  string
		adm  bool
		mult float64
	}
	var cells []cell
	for _, sys := range p.Systems {
		for _, adm := range []bool{true, false} {
			for _, m := range p.Mults {
				cells = append(cells, cell{sys, adm, m})
			}
		}
	}
	points, err := RunParallel(Parallelism(), len(cells), func(i int) (LoadPoint, error) {
		c := cells[i]
		offered := c.mult * res.CapacityKops[c.sys] * 1e3
		r := load.Run(p.config(c.sys, offered, c.adm))
		if err := r.CheckAccounting(); err != nil {
			return LoadPoint{}, err
		}
		return LoadPoint{System: c.sys, Admission: c.adm, Mult: c.mult, Result: r}, nil
	})
	if err != nil {
		panic(fmt.Sprintf("load curve: %v", err))
	}
	res.Points = points

	// Phase 3: fusion-depth sweep at saturation (HyperLoop only).
	for _, sys := range p.Systems {
		if sys != "hyperloop" {
			continue
		}
		offered := res.CapacityKops[sys] * 1e3
		fusion, ferr := RunParallel(Parallelism(), len(p.FusionDepths), func(i int) (FusionPoint, error) {
			// Coalescing needs a dispatch window spanning several arrivals:
			// hold the queue for 50µs (a tenth of the SLO), release it as one
			// same-instant batch, and let WQE-chain fusion turn the batch
			// into FusionDepth-op chains — one doorbell per chain instead of
			// one per op. Bursty b-model arrivals fill the window faster.
			cfg := p.config(sys, offered, true)
			cfg.Arrival = "bmodel"
			cfg.Admission.DispatchEvery = 50 * sim.Microsecond
			cfg.FusionDepth = p.FusionDepths[i]
			r := load.Run(cfg)
			if err := r.CheckAccounting(); err != nil {
				return FusionPoint{}, err
			}
			return FusionPoint{Depth: p.FusionDepths[i], Result: r}, nil
		})
		if ferr != nil {
			panic(fmt.Sprintf("load curve: fusion sweep: %v", ferr))
		}
		res.Fusion = fusion
	}
	return res
}

// LoadMetrics runs one instrumented admission-on point at saturation-probe
// load and returns its merged registry — the byte-reproducible dump the
// determinism gate diffs across engine worker counts.
func LoadMetrics(seed int64, workers int) (*metrics.Registry, error) {
	p := LoadCurveParams{Seed: seed, Workers: workers, Quick: true}
	p.fill()
	cfg := p.config("hyperloop", probeOffered, true)
	cfg.Metrics = true
	cfg.WithSpans = true
	r := load.Run(cfg)
	if err := r.CheckAccounting(); err != nil {
		return nil, err
	}
	return r.MergedRegistry(), nil
}

// loadFlags registers the population flags the curve and fusion halves of
// `hl load` share.
func loadFlags(fs *flag.FlagSet) {
	fs.Int("clients", 1<<20, "modeled connection-id space across groups")
	fs.String("arrival", "poisson", "arrival process: poisson or bmodel")
}

// loadCurve runs the sweep once per invocation: `hl load` renders its curve
// and fusion tables from the same RunLoadCurve.
func loadCurve(e *Env) LoadCurveResult {
	if e.curve == nil {
		r := RunLoadCurve(LoadCurveParams{
			Seed: e.Seed, Clients: e.Int("clients"), Arrival: e.Str("arrival"),
			Workers: e.EngineWorkers, Quick: e.Quick,
		})
		e.curve = &r
	}
	return *e.curve
}

// curveScenario prints the goodput/p99.9-vs-offered-load table per system:
// past the knee the admission-on rows hold goodput at capacity while the
// admission-off rows collapse into their hidden queue.
func curveScenario(e *Env) error {
	res := loadCurve(e)
	e.Printf("=== Load curve: %s arrivals, %d modeled clients, SLO-bounded goodput ===\n",
		e.Str("arrival"), e.Int("clients"))
	e.Printf("measured saturation:")
	for _, sys := range []string{"hyperloop", "naive"} {
		if c, ok := res.CapacityKops[sys]; ok {
			e.Printf(" %s=%.1fkops", sys, c)
		}
	}
	e.Println()

	t := stats.NewTable("system", "admission", "mult", "offered-kops", "tput-kops",
		"goodput-kops", "p50", "p99.9", "shed", "unserved", "conns")
	for _, pt := range res.Points {
		v, admission := pt.Verdicts, "off"
		if pt.Admission {
			admission = "on"
		}
		t.AddRow(pt.System, admission, fmt.Sprintf("%.2f", pt.Mult),
			fmt.Sprintf("%.1f", pt.Offered/1e3),
			fmt.Sprintf("%.1f", pt.TputKops), fmt.Sprintf("%.1f", pt.GoodputKops),
			us(pt.Lat.P50), us(pt.P999),
			fmt.Sprint(v.ShedQueueFull+v.ShedThrottled), fmt.Sprint(v.Unserved),
			fmt.Sprint(pt.ConnsOpened))
	}
	e.Table(t)
	return nil
}

// fusionScenario prints the WQE-chain fusion-depth sweep at saturation.
func fusionScenario(e *Env) error {
	e.Println("=== Fusion sweep: HyperLoop at saturation, doorbell cost 200ns ===")
	t := stats.NewTable("depth", "tput-kops", "goodput-kops", "p50", "p99.9",
		"doorbells", "fused-batches", "fused-ops")
	for _, pt := range loadCurve(e).Fusion {
		t.AddRow(fmt.Sprint(pt.Depth), fmt.Sprintf("%.1f", pt.TputKops),
			fmt.Sprintf("%.1f", pt.GoodputKops), us(pt.Lat.P50), us(pt.P999),
			fmt.Sprint(pt.Doorbells), fmt.Sprint(pt.FusedBatches), fmt.Sprint(pt.FusedOps))
	}
	e.Table(t)
	return nil
}
