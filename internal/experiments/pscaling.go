package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/metrics"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// Partitioned-scaling experiment: the same fixed-pool scaling workload as
// RunShardScaling, but executed on a sim.PartitionedEngine — shards are
// carved into groups of four, each group a full plane on its own partition,
// with a slice of the offered load forwarded cross-group over the
// inter-group link. The measured numbers (throughput, latency, per-shard
// p99, metrics dump) are bit-identical at every -engine-workers setting;
// only the wall clock changes. That invariant is what the CI determinism
// gate pins.

// PartitionedScalingParams selects one partitioned-scaling cell.
type PartitionedScalingParams struct {
	// Shards is the total shard count (default 16); groups of 4 shards are
	// carved from it, each on its own engine partition.
	Shards int
	// Workers is the engine worker count (0 = all cores, 1 = serial).
	Workers int
	Seed    int64
	// OpsPerShard, Pipeline, ValueSize mirror ShardScalingParams (defaults
	// 400 / 8 / 128).
	OpsPerShard int
	Pipeline    int
	ValueSize   int
	// CrossPct is the percentage of puts each group aims at keys homed on a
	// foreign group (default 10) — the cross-partition traffic that makes
	// the conservative scheme earn its keep.
	CrossPct int
	// Metrics attaches one registry per group (merged in group order by the
	// caller; observation-only).
	Metrics bool
}

func (p *PartitionedScalingParams) fill() {
	if p.Shards <= 0 {
		p.Shards = 16
	}
	if p.OpsPerShard <= 0 {
		p.OpsPerShard = 400
	}
	if p.Pipeline <= 0 {
		p.Pipeline = 8
	}
	if p.ValueSize <= 0 {
		p.ValueSize = 128
	}
	if p.CrossPct <= 0 {
		p.CrossPct = 10
	}
}

// groupsFor carves total shards into groups of 4 (falling back to one group
// when the count doesn't divide).
func groupsFor(shards int) (groups, perGroup int) {
	groups = shards / 4
	if groups < 1 {
		groups = 1
	}
	perGroup = shards / groups
	if groups*perGroup != shards {
		return 1, shards
	}
	return groups, perGroup
}

// PartitionedScalingResult is one partitioned-scaling cell.
type PartitionedScalingResult struct {
	Shards  int
	Groups  int
	Workers int
	Acked   int
	// CrossAcked counts puts that were forwarded to a foreign home group.
	CrossAcked  uint64
	Elapsed     sim.Duration
	TputKops    float64
	Lat         stats.Summary
	MaxShardP99 sim.Duration
	// Skew is the conservative-lookahead invariant verdict for the run.
	Skew check.Result
	// Regs are the per-group registries in group order (nil unless
	// Params.Metrics); merge them in this order for a bit-reproducible dump.
	Regs []*metrics.Registry
}

// RunPartitionedScaling runs one cell of the scaling workload on the
// partitioned engine.
func RunPartitionedScaling(p PartitionedScalingParams) PartitionedScalingResult {
	p.fill()
	groups, perGroup := groupsFor(p.Shards)
	hostsPerGroup := scalingHosts / groups
	var regs []*metrics.Registry
	if p.Metrics {
		regs = make([]*metrics.Registry, groups)
		for g := range regs {
			regs[g] = metrics.NewRegistry()
		}
	}
	pp := shard.NewPartitionedPlane(shard.PartitionedConfig{
		Groups:         groups,
		ShardsPerGroup: perGroup,
		HostsPerGroup:  hostsPerGroup,
		Replicas:       3,
		RegionSize:     scalingRegion,
		Group:          core.Config{Depth: 512},
		Seed:           p.Seed,
		Workers:        p.Workers,
		Metrics:        regs,
	})
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		panic(fmt.Sprintf("partitioned scaling: %v", err))
	}
	var samplers []*metrics.Sampler
	if regs != nil {
		for g := 0; g < groups; g++ {
			cluster.Instrument(regs[g], pp.Group(g).Cl, fmt.Sprintf("pg%d", g))
			samplers = append(samplers, metrics.NewSampler(pp.PE.Partition(g), regs[g], sim.Millisecond))
		}
	}

	// Per-(group, local shard) keysets: 64 keys that hash home to the group
	// AND route to the shard inside the group's plane — the same bounded
	// footprint as the serial cell. Cross keysets hold keys homed on foreign
	// groups; the issuing group's RNG picks from them read-only.
	const keysetSize = 64
	gens := make([][]*ycsb.Generator, groups)
	vals := make([][]*ycsb.ValueGenerator, groups)
	keyset := make([][][]string, groups)
	crossKeys := make([][]string, groups)
	rngs := make([]*sim.Rand, groups)
	for g := 0; g < groups; g++ {
		gens[g] = make([]*ycsb.Generator, perGroup)
		vals[g] = make([]*ycsb.ValueGenerator, perGroup)
		keyset[g] = make([][]string, perGroup)
		rngs[g] = sim.NewRand(p.Seed + 77*int64(g) + 5)
		for s := 0; s < perGroup; s++ {
			gens[g][s] = ycsb.NewGenerator(
				ycsb.Workload{Name: "update", Update: 100, Dist: ycsb.Uniform},
				100_000, p.Seed+int64(g)*1009+int64(s)*101)
			vals[g][s] = ycsb.NewValueGenerator(p.ValueSize, p.Seed+int64(g)*1013+int64(s)*103)
			for i := int64(0); len(keyset[g][s]) < keysetSize; i++ {
				k := fmt.Sprintf("g%d/s%d/%s", g, s, ycsb.KeyName(i))
				if pp.HomeGroup(k) == g && pp.Group(g).Map.Route(k) == s {
					keyset[g][s] = append(keyset[g][s], k)
				}
			}
		}
		if groups > 1 {
			for i := 0; len(crossKeys[g]) < keysetSize; i++ {
				k := fmt.Sprintf("x%d/%05d", g, i)
				if pp.HomeGroup(k) != g {
					crossKeys[g] = append(crossKeys[g], k)
				}
			}
		}
	}

	// Per-group state, each slot touched only by its own partition.
	groupTarget := p.OpsPerShard * perGroup
	acked := make([]int, groups)
	crossAcked := make([]uint64, groups)
	hists := make([]*stats.Histogram, groups)
	shardHists := make([][]*stats.Histogram, groups)
	finishAt := make([]sim.Time, groups)
	for g := range hists {
		hists[g] = stats.NewHistogram()
		shardHists[g] = make([]*stats.Histogram, perGroup)
		for s := range shardHists[g] {
			shardHists[g][s] = stats.NewHistogram()
		}
	}

	start := pp.PE.Partition(0).Now()
	for g := 0; g < groups; g++ {
		g := g
		eng := pp.PE.Partition(g)
		var issue func(s int)
		var submit func(s int, k string, v []byte, cross bool, issuedAt sim.Time)
		submit = func(s int, k string, v []byte, cross bool, issuedAt sim.Time) {
			pp.Put(g, k, v, func(err error) {
				switch {
				case err == nil:
				case errors.Is(err, wal.ErrLogFull):
					// Ring backpressure (possibly at the foreign home group,
					// transported back in the ack): retry after the same pause
					// as the serial cell; the queueing time stays inside the
					// op's latency sample.
					eng.Schedule(2*sim.Microsecond, func() { submit(s, k, v, cross, issuedAt) })
					return
				default:
					panic(fmt.Sprintf("partitioned scaling: put: %v", err))
				}
				lat := eng.Now().Sub(issuedAt)
				hists[g].Record(lat)
				if cross {
					crossAcked[g]++
				} else {
					shardHists[g][s].Record(lat)
				}
				acked[g]++
				if acked[g] == groupTarget {
					finishAt[g] = eng.Now()
				}
				issue(s)
			})
		}
		issue = func(s int) {
			if acked[g] >= groupTarget {
				return
			}
			if crossKeys[g] != nil && rngs[g].Intn(100) < p.CrossPct {
				k := crossKeys[g][rngs[g].Intn(len(crossKeys[g]))]
				submit(s, k, vals[g][s].Next(0), true, eng.Now())
				return
			}
			op := gens[g][s].Next()
			k := keyset[g][s][int(op.Key)%keysetSize]
			submit(s, k, vals[g][s].Next(0), false, eng.Now())
		}
		eng.Schedule(0, func() {
			for s := 0; s < perGroup; s++ {
				for i := 0; i < p.Pipeline; i++ {
					issue(s)
				}
			}
		})
	}

	deadline := start
	limit := start.Add(60 * sim.Second)
	for {
		deadline = deadline.Add(500 * sim.Microsecond)
		pp.PE.Run(deadline)
		done := true
		for g := range acked {
			done = done && acked[g] >= groupTarget
		}
		if done {
			break
		}
		if deadline >= limit {
			panic(fmt.Sprintf("partitioned scaling: stalled at %v/%d per group", acked, groupTarget))
		}
	}
	for _, s := range samplers {
		s.Stop()
	}
	if regs != nil {
		for g := range regs {
			regs[g].Sample(pp.PE.Partition(g).Now())
		}
	}
	skew := check.PartitionSkew(pp.PE)
	pp.Close()

	// The cell's elapsed time is the slowest group's finish; per-group
	// histograms merge in group order so the summary is order-independent of
	// worker scheduling.
	var end sim.Time
	total := 0
	var cross uint64
	agg := stats.NewHistogram()
	res := PartitionedScalingResult{
		Shards: p.Shards, Groups: groups, Workers: p.Workers, Skew: skew, Regs: regs,
	}
	for g := 0; g < groups; g++ {
		if finishAt[g] > end {
			end = finishAt[g]
		}
		total += acked[g]
		cross += crossAcked[g]
		agg.Merge(hists[g])
		for _, h := range shardHists[g] {
			if p99 := h.P99(); p99 > res.MaxShardP99 {
				res.MaxShardP99 = p99
			}
		}
	}
	res.Acked = total
	res.CrossAcked = cross
	res.Elapsed = end.Sub(start)
	res.TputKops = float64(total) / res.Elapsed.Seconds() / 1e3
	res.Lat = agg.Summarize()
	return res
}

// MergedRegistry merges the per-group registries in group order into one
// dump — byte-identical at any worker count.
func (r PartitionedScalingResult) MergedRegistry() *metrics.Registry {
	return mergeRegistries(r.Regs)
}

// summary is the line two runs of one cell must agree on byte for byte.
func (r PartitionedScalingResult) summary() string {
	return fmt.Sprintf("acked=%d cross=%d elapsed=%v lat=%v maxShardP99=%v",
		r.Acked, r.CrossAcked, r.Elapsed, r.Lat, r.MaxShardP99)
}

// pscalingScenario runs the 16-shard partitioned-engine cell across worker
// counts (1, 2, 4, 8, or 1 vs -engine-workers). Simulated results must be
// identical at every count; only the wall clock may change, and the wall-ms
// column plus the recorded speedup are the multi-core payoff measurement. A
// requested dump adds one instrumented run at -engine-workers.
func pscalingScenario(e *Env) error {
	ops := shardOps(e)
	workerCounts := []int{1, 2, 4, 8}
	if e.EngineWorkers > 0 {
		workerCounts = []int{1, e.EngineWorkers}
	}
	e.Printf("=== Partitioned scaling: 16 shards / 4 groups, %d ops/shard, lookahead = inter-group min latency ===\n", ops)
	t := stats.NewTable("workers", "acked", "cross", "elapsed", "kops/s", "avg", "p99", "wall-ms", "vs-w1")
	cell := func(w int, withMetrics bool) (PartitionedScalingResult, error) {
		r := RunPartitionedScaling(PartitionedScalingParams{
			Shards: 16, Workers: w, Seed: e.Seed, OpsPerShard: ops, Metrics: withMetrics,
		})
		if !r.Skew.Pass() {
			return r, fmt.Errorf("workers=%d: %w", w, r.Skew.Err)
		}
		return r, nil
	}
	var refSum string
	var refWall float64
	for i, w := range workerCounts {
		wall := time.Now()
		r, err := cell(w, false)
		if err != nil {
			return err
		}
		wallMs := float64(time.Since(wall).Microseconds()) / 1e3
		speedup := 1.0
		if i == 0 {
			refSum, refWall = r.summary(), wallMs
		} else {
			if r.summary() != refSum {
				return fmt.Errorf("workers=%d diverged from serial:\n  w1: %s\n  w%d: %s", w, refSum, w, r.summary())
			}
			speedup = refWall / wallMs
		}
		t.AddRow(fmt.Sprint(w), fmt.Sprint(r.Acked), fmt.Sprint(r.CrossAcked),
			fmt.Sprint(r.Elapsed), fmt.Sprintf("%.1f", r.TputKops),
			us(r.Lat.Mean), us(r.Lat.P99),
			fmt.Sprintf("%.1f", wallMs), fmt.Sprintf("%.2fx", speedup))
	}
	e.Table(t)
	e.Printf("simulated results identical at all worker counts (%d cores available)\n", runtime.NumCPU())
	if e.Metrics != nil {
		r, err := cell(e.EngineWorkers, true)
		if err != nil {
			return err
		}
		e.Merge(r.MergedRegistry())
	}
	return nil
}
