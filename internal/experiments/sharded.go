package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/faults"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/metrics"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// Sharded-plane experiments: the shard-count scaling curve (aggregate
// gWRITE throughput and per-shard p99 vs number of shards on a fixed host
// pool) and the migration-inflight chaos scenario (kill a source or
// destination replica mid-migration; the check invariants deliver the
// verdict). Each cell is one self-contained deterministic simulation,
// fanned over RunParallel like every other sweep.

// ShardScalingCounts is the default shard-count sweep.
var ShardScalingCounts = []int{1, 2, 4, 8, 16}

// ShardScalingParams selects one scaling-sweep cell.
type ShardScalingParams struct {
	Shards int
	Seed   int64
	// OpsPerShard is how many update ops each shard's strands must ack
	// before the cell stops (default 400; scaled down by -quick).
	OpsPerShard int
	// Pipeline is the closed-loop depth per shard (default 8).
	Pipeline int
	// ValueSize is the update payload (default 128).
	ValueSize int
	// Metrics attaches a per-cell registry (returned in the result) with
	// per-shard series, cluster gauges, and a virtual-time sampler for
	// windowed rates. Observation-only: the measured numbers are identical
	// with or without it.
	Metrics bool
	// EngineWorkers > 0 runs the cell on a sim.PartitionedEngine with that
	// many workers (1 = the serial reference schedule) via
	// RunPartitionedScaling: shards are carved into per-partition groups, so
	// the modeled topology differs from the single-engine cell, but results
	// are bit-identical across worker counts.
	EngineWorkers int
}

func (p *ShardScalingParams) fill() {
	if p.OpsPerShard <= 0 {
		p.OpsPerShard = 400
	}
	if p.Pipeline <= 0 {
		p.Pipeline = 8
	}
	if p.ValueSize <= 0 {
		p.ValueSize = 128
	}
}

// ShardScalingResult is one point of the scaling curve.
type ShardScalingResult struct {
	Shards   int
	Acked    int
	Elapsed  sim.Duration
	TputKops float64 // aggregate acked puts per second, in thousands
	Lat      stats.Summary
	// MaxShardP99 is the worst per-shard p99 — the "per-shard latency
	// stays flat" claim is about this, not the aggregate.
	MaxShardP99 sim.Duration
	// Reg is the cell's metrics registry (nil unless Params.Metrics). Cells
	// are merged in sweep order for a bit-reproducible dump.
	Reg *metrics.Registry
}

// scalingHosts is the fixed pool every scaling cell runs on: capacity is
// held constant while shard count sweeps, so the curve isolates the
// data-plane architecture from raw hardware growth.
const scalingHosts = 16

// scalingRegion keeps 16 shards within the default 16 MiB store window.
const scalingRegion = 256 << 10

// RunShardScaling runs one scaling cell: a sharded plane over the fixed
// pool, driven by a closed-loop multi-shard YCSB update stream (uniform
// keys — the scaling curve measures the architecture, not the skew) with
// Pipeline strands per shard.
func RunShardScaling(p ShardScalingParams) ShardScalingResult {
	p.fill()
	if p.EngineWorkers > 0 {
		r := RunPartitionedScaling(PartitionedScalingParams{
			Shards: p.Shards, Workers: p.EngineWorkers, Seed: p.Seed,
			OpsPerShard: p.OpsPerShard, Pipeline: p.Pipeline,
			ValueSize: p.ValueSize, Metrics: p.Metrics,
		})
		if !r.Skew.Pass() {
			panic(fmt.Sprintf("shard scaling: %v", r.Skew.Err))
		}
		res := ShardScalingResult{
			Shards: r.Shards, Acked: r.Acked, Elapsed: r.Elapsed,
			TputKops: r.TputKops, Lat: r.Lat, MaxShardP99: r.MaxShardP99,
		}
		if p.Metrics {
			res.Reg = r.MergedRegistry()
		}
		return res
	}
	eng := sim.NewEngine()
	var reg *metrics.Registry
	if p.Metrics {
		reg = metrics.NewRegistry()
	}
	ready := false
	pl := shard.New(eng, shard.Config{
		Shards:     p.Shards,
		Replicas:   3,
		Hosts:      scalingHosts,
		RegionSize: scalingRegion,
		Group:      core.Config{Depth: 512},
		Seed:       p.Seed,
		Metrics:    reg,
	}, func(err error) {
		if err != nil {
			panic(fmt.Sprintf("shard scaling: open: %v", err))
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		panic("shard scaling: plane never opened")
	}
	var sampler *metrics.Sampler
	if reg != nil {
		cluster.Instrument(reg, pl.Cl, fmt.Sprintf("sc%d", p.Shards))
		sampler = metrics.NewSampler(eng, reg, sim.Millisecond)
	}

	// One YCSB stream per shard keeps the offered load per shard constant
	// across the sweep. Each shard works a fixed 64-key set (the first YCSB
	// key names that route to it), so the slot allocator's footprint is
	// bounded identically at every shard count; the generator still shapes
	// which of those keys each op hits.
	const keysetSize = 64
	gens := make([]*ycsb.Generator, p.Shards)
	vals := make([]*ycsb.ValueGenerator, p.Shards)
	keyset := make([][]string, p.Shards)
	for s := range gens {
		gens[s] = ycsb.NewGenerator(
			ycsb.Workload{Name: "update", Update: 100, Dist: ycsb.Uniform},
			100_000, p.Seed+int64(s)*101)
		vals[s] = ycsb.NewValueGenerator(p.ValueSize, p.Seed+int64(s)*103)
		for i := int64(0); len(keyset[s]) < keysetSize; i++ {
			k := fmt.Sprintf("s%d/%s", s, ycsb.KeyName(i))
			if pl.Map.Route(k) == s {
				keyset[s] = append(keyset[s], k)
			}
		}
	}
	nextKey := func(s int) string {
		op := gens[s].Next()
		return keyset[s][int(op.Key)%keysetSize]
	}

	hist := stats.NewHistogram()
	perShard := make([]*stats.Histogram, p.Shards)
	for s := range perShard {
		perShard[s] = stats.NewHistogram()
	}
	target := p.OpsPerShard * p.Shards
	acked := 0
	var start sim.Time
	var issue func(s int)
	// submit retries on a full WAL ring: ring space is reclaimed at commit,
	// which costs ~3 chain ops per record vs 1 for the append, so a closed
	// loop legitimately outruns the executor and the ring is the
	// backpressure signal. The retry delay is the measured queueing time —
	// it stays inside the op's latency sample.
	var submit func(s int, k string, v []byte, issuedAt sim.Time)
	submit = func(s int, k string, v []byte, issuedAt sim.Time) {
		_, err := pl.Put(k, v, func(err error) {
			if err != nil {
				panic(fmt.Sprintf("shard scaling: put: %v", err))
			}
			lat := eng.Now().Sub(issuedAt)
			hist.Record(lat)
			perShard[s].Record(lat)
			acked++
			issue(s)
		})
		switch {
		case err == nil:
		case errors.Is(err, wal.ErrLogFull):
			eng.Schedule(2*sim.Microsecond, func() { submit(s, k, v, issuedAt) })
		default:
			panic(fmt.Sprintf("shard scaling: put submit: %v", err))
		}
	}
	issue = func(s int) {
		if acked >= target {
			return
		}
		submit(s, nextKey(s), vals[s].Next(0), eng.Now())
	}
	start = eng.Now()
	for s := 0; s < p.Shards; s++ {
		for i := 0; i < p.Pipeline; i++ {
			issue(s)
		}
	}
	if !eng.RunUntil(func() bool { return acked >= target }, start.Add(60*sim.Second)) {
		panic(fmt.Sprintf("shard scaling: stalled at %d/%d", acked, target))
	}
	elapsed := eng.Now().Sub(start)
	if sampler != nil {
		sampler.Stop()
		reg.Sample(eng.Now())
	}
	pl.Close()

	res := ShardScalingResult{
		Shards:   p.Shards,
		Acked:    acked,
		Elapsed:  elapsed,
		TputKops: float64(acked) / elapsed.Seconds() / 1e3,
		Lat:      hist.Summarize(),
		Reg:      reg,
	}
	for _, h := range perShard {
		if p99 := h.P99(); p99 > res.MaxShardP99 {
			res.MaxShardP99 = p99
		}
	}
	return res
}

// ShardScaling sweeps the scaling curve over ShardScalingCounts, fanned over
// the worker pool; results come back in input order. withMetrics attaches a
// registry to every cell.
func ShardScaling(seed int64, opsPerShard int, withMetrics bool) []ShardScalingResult {
	counts := ShardScalingCounts
	out, _ := RunParallel(Parallelism(), len(counts), func(i int) (ShardScalingResult, error) {
		return RunShardScaling(ShardScalingParams{
			Shards: counts[i], Seed: seed, OpsPerShard: opsPerShard, Metrics: withMetrics,
		}), nil
	})
	return out
}

// --- migration-inflight chaos ---

// Fixed topology for migration scenarios: 4 shards with explicitly
// disjoint placements on hosts 0..11, plus 3 spare destination hosts
// 12..14 — so the planned victim never carries another shard's replica and
// the blast radius is exactly the migrating shard.
const (
	msShards     = 4
	msReplicas   = 3
	msHosts      = 15
	msRegionSize = 512 << 10
	msLogSize    = 128 << 10
	msChunk      = 2 << 10
	msValueSize  = 64
	msMigrShard  = 0 // the shard the scenario migrates
)

// msBulkWindow is roughly how long the bulk copy of the preloaded region
// takes with msChunk-sized durable gWRITEs (300 preloaded slots ≈ 310 KiB
// ≈ 155 chunks at ~10 µs each) — the window PlanMigration drops the fault
// into.
const msBulkWindow = 1400 * sim.Microsecond

// MigrationParams selects one migration-inflight cell.
type MigrationParams struct {
	Seed int64
}

// MigrationVerdict is the outcome of one migration-inflight scenario.
type MigrationVerdict struct {
	Params    MigrationParams
	Spec      faults.MigrationSpec
	Timeline  []shard.Event
	Acked     int // puts whose ack arrived
	Errored   int // puts that failed (indeterminate)
	Migrated  bool
	MigErr    error
	StaleSupp uint64
	Judged
}

// RunMigrationScenario preloads a sharded plane, starts a live migration
// of shard 0 onto spare hosts, kills a source or destination replica
// mid-copy per the planned spec, keeps a seq-stamped put workload running
// across all shards throughout, then quiesces and runs the sharded
// invariant checkers: placement anti-affinity, no key lost or duplicated,
// epoch fence intact.
func RunMigrationScenario(p MigrationParams) MigrationVerdict {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     msHosts + 1,
		StoreSize: msShards * msRegionSize,
		Seed:      p.Seed*2 + 1,
	})
	placement := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	dest := []int{12, 13, 14}
	reg := metrics.NewRegistry()
	rec := span.NewRecorder(eng)
	cluster.Instrument(reg, cl, "ms")
	shardCfg := shard.Config{
		Shards: msShards, Replicas: msReplicas, Hosts: msHosts,
		RegionSize: msRegionSize, LogSize: msLogSize, ChunkBytes: msChunk,
		Group:   core.Config{Depth: 512, OpTimeout: 3 * sim.Millisecond},
		Seed:    p.Seed,
		Metrics: reg,
		Spans:   rec,
	}
	ready := false
	pl := shard.Open(eng, cl, placement, shardCfg, func(err error) {
		if err != nil {
			panic(fmt.Sprintf("migration scenario: open: %v", err))
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		panic("migration scenario: plane never opened")
	}

	spec := faults.PlanMigration(p.Seed, msReplicas, msBulkWindow)
	fp := faults.NewPlane(eng, cl, p.Seed^0x5EED)
	fp.SetSpans(rec)

	// Seq-stamped values: the first 8 bytes carry the put's global sequence
	// number, so rebuilt contents map key -> seq and the KeyModel can
	// admit/deny what the fault left behind.
	model := make(map[string]check.KeyModel)
	mkVal := func(seq uint64) []byte {
		v := make([]byte, msValueSize)
		binary.LittleEndian.PutUint64(v, seq)
		return v
	}
	var seq uint64
	acked, errored := 0, 0
	inflight := 0
	put := func(key string) {
		seq++
		s := seq
		inflight++
		if _, err := pl.Put(key, mkVal(s), func(err error) {
			inflight--
			m := model[key]
			if err == nil {
				acked++
				if s > m.Acked {
					m.Acked = s
				}
			} else {
				errored++
				m.Maybe = append(m.Maybe, s)
			}
			model[key] = m
		}); err != nil {
			// Synchronous refusal: the put never entered the WAL.
			inflight--
			seq--
			errored++
		}
	}

	// Preload: enough bytes on the migrating shard that the bulk copy spans
	// many chunks (the fault window), plus a baseline on every other shard.
	// Issued in batches with a full commit drain between them: ring space is
	// reclaimed only when a record *commits* (gCAS + gMEMCPY + gFLUSH, ~3x
	// the append cost), so an unpaced burst of new keys overflows the ring
	// and every refused new-key put leaves an allocated-but-unlogged hole in
	// the data region that would blind the recovery slot scan.
	wr := sim.NewRand(p.Seed + 0x7777)
	preKeys := make([][]string, msShards)
	var pending []string
	for s := 0; s < msShards; s++ {
		n := 40
		if s == msMigrShard {
			n = 300 // ~310 KiB of slots -> ~155 bulk chunks to fault into
		}
		for i := 0; len(preKeys[s]) < n; i++ {
			k := fmt.Sprintf("mk-%d-%05d", s, i)
			if pl.Map.Route(k) == s {
				preKeys[s] = append(preKeys[s], k)
			}
		}
		pending = append(pending, preKeys[s]...)
	}
	const preBatch = 64
	deadline := sim.Time(0).Add(500 * sim.Millisecond)
	for from := 0; from < len(pending); from += preBatch {
		to := from + preBatch
		if to > len(pending) {
			to = len(pending)
		}
		for _, k := range pending[from:to] {
			put(k)
		}
		if !eng.RunUntil(func() bool { return inflight == 0 }, deadline) {
			panic("migration scenario: preload stalled")
		}
		drained := false
		pl.Commit(func(error) { drained = true })
		if !eng.RunUntil(func() bool { return drained }, deadline) {
			panic("migration scenario: preload drain stalled")
		}
	}

	// Background workload across all shards while the migration runs:
	// closed strands re-writing preloaded keys with fresh seqs. Errors are
	// expected while a chain is down — they feed the Maybe sets.
	stopAt := sim.Time(0).Add(spec.MigrateAt + 40*sim.Millisecond)
	var strand func(id int)
	strand = func(id int) {
		if eng.Now() >= stopAt {
			return
		}
		s := id % msShards
		ks := preKeys[s]
		put(ks[wr.Intn(len(ks))])
		eng.Schedule(100*sim.Microsecond+wr.Exp(200*sim.Microsecond), func() { strand(id) })
	}
	for i := 0; i < 8; i++ {
		eng.Schedule(sim.Duration(i)*30*sim.Microsecond, func() { strand(i) })
	}

	// The migration, and the planned fault mid-copy: either a replica kill
	// or an operator re-tiering the whole destination to edge (the fence's
	// tier re-validation must then abort back to the source).
	var migDone bool
	var migErr error
	eng.ScheduleAt(sim.Time(0).Add(spec.MigrateAt), func() {
		if err := pl.Migrate(msMigrShard, dest, func(err error) {
			migDone, migErr = true, err
		}); err != nil {
			migDone, migErr = true, err
		}
	})
	if spec.Retier {
		retierAt := sim.Time(0).Add(spec.MigrateAt + spec.RetierAfter)
		eng.ScheduleAt(retierAt, func() {
			for _, h := range dest {
				pl.SetHostTier(h, shard.TierEdge)
			}
		})
	} else {
		var victim *cluster.Node
		if spec.KillDest {
			victim = pl.Pool()[dest[spec.VictimIdx]]
		} else {
			victim = pl.Pool()[placement[msMigrShard][spec.VictimIdx]]
		}
		// CrashNode takes a delay relative to now; the spec's offsets are
		// absolute sim times, so convert.
		faultAt := sim.Time(0).Add(spec.MigrateAt + spec.FaultAfter)
		fp.CrashNode(faultAt.Sub(eng.Now()), victim, false, spec.RestartAfter)
	}

	// Run through migration + workload, then quiesce.
	eng.Run(stopAt)
	quiesced := eng.RunUntil(func() bool { return migDone && inflight == 0 }, deadline)

	// Drain every healthy shard and flush, so data regions converge before
	// checking. A shard whose chain is down (source-kill abort path leaves
	// shard 0 fenced off a dead chain only if the migration failed) drains
	// with an error; that shard's convergence is then judged from the WAL
	// prefix rather than full execution.
	var drainErr error
	done := false
	pl.Commit(func(err error) { drainErr = err; done = true })
	if !eng.RunUntil(func() bool { return done }, deadline) {
		drainErr = errors.New("final drain stalled")
	}
	done = false
	pl.Flush(func(error) { done = true })
	eng.RunUntil(func() bool { return done }, deadline)
	fp.StopAll()

	reg.Sample(eng.Now())
	v := MigrationVerdict{
		Params: p, Spec: spec,
		Timeline: pl.Timeline(),
		Acked:    acked, Errored: errored,
		Migrated: migDone && migErr == nil, MigErr: migErr,
		StaleSupp: pl.StaleSuppressed(),
		Judged:    Judged{Metrics: reg},
	}

	// Assemble checker inputs from the final plane state.
	route := func(k string) int { return pl.Map.Route(k) }
	contents := make(map[int]map[string]uint64, msShards)
	var rebuildErr error
	states := make([]check.EpochState, 0, msShards)
	for s := 0; s < msShards; s++ {
		sh := pl.Shard(s)
		owners := sh.Replicas()
		regionCfg := pl.RegionConfig(s)
		// Rebuild from the chain tail: chain replication guarantees the tail
		// holds a prefix of what upstream members hold, so anything present
		// there is present everywhere.
		tail := pl.Pool()[owners[len(owners)-1]]
		rebuilt, err := kvstore.Rebuild(tail.StoreBytes, regionCfg)
		if err != nil && rebuildErr == nil {
			rebuildErr = fmt.Errorf("shard %d rebuild: %w", s, err)
		}
		m := make(map[string]uint64, len(rebuilt))
		for k, val := range rebuilt {
			if len(val) >= 8 {
				m[k] = binary.LittleEndian.Uint64(val)
			}
		}
		contents[s] = m

		st := check.EpochState{Shard: s, Epoch: sh.Epoch()}
		for _, h := range owners {
			st.Owners = append(st.Owners, pl.EpochWord(h, s))
		}
		for _, h := range sh.FormerOwners() {
			st.Former = append(st.Former, pl.EpochWord(h, s))
		}
		if s == msMigrShard {
			st.StaleServes = pl.StaleServed()
		}
		states = append(states, st)
	}

	if spec.Retier {
		var retierErr error
		switch {
		case v.Migrated:
			retierErr = errors.New("migration completed despite all-edge destination")
		case !errors.Is(migErr, shard.ErrAllEdge):
			retierErr = fmt.Errorf("abort reason not the tier constraint: %v", migErr)
		}
		v.Checks = append(v.Checks, check.Result{
			Name: "retier-abort", Err: retierErr,
			Detail: "mid-copy re-tier aborts at the fence, shard stays on source",
		})
	}
	v.Checks = append(v.Checks,
		check.Result{Name: "quiesce", Err: quiesceErr(quiesced, drainErr, migDone),
			Detail: fmt.Sprintf("%d acked, %d indeterminate, migrated=%v", acked, errored, v.Migrated)},
		check.Result{Name: "rebuild", Err: rebuildErr, Detail: "all shard regions recover"},
		check.ShardPlacement(pl.Map.Placements(), msReplicas),
		check.ShardedKeys(route, contents, model),
		check.EpochFence(states),
		check.SpanConservation(rec),
	)
	// Per-shard WAL soundness across the *current* owners.
	for s := 0; s < msShards; s++ {
		regionCfg := pl.RegionConfig(s)
		var imgs []check.Image
		for _, h := range pl.Shard(s).Replicas() {
			n := pl.Pool()[h]
			imgs = append(imgs, check.Image{Name: fmt.Sprintf("s%d/h%d", s, h), Read: n.StoreBytes})
		}
		ws := check.WALSoundness(imgs, regionCfg.LogBase, regionCfg.LogSize)
		ws.Name = fmt.Sprintf("wal-soundness-s%d", s)
		v.Checks = append(v.Checks, ws)
	}
	pl.Close()
	return v
}

func quiesceErr(quiesced bool, drainErr error, migDone bool) error {
	switch {
	case !quiesced:
		return errors.New("workload did not quiesce before deadline")
	case !migDone:
		return errors.New("migration never resolved")
	case drainErr != nil:
		return drainErr
	}
	return nil
}

// migrationAt runs the migration-inflight scenario planned for seed.
func migrationAt(seed int64) MigrationVerdict {
	return RunMigrationScenario(MigrationParams{Seed: seed})
}

func (v MigrationVerdict) row() []string {
	kill, faultAfter := fmt.Sprintf("source[%d]", v.Spec.VictimIdx), v.Spec.FaultAfter
	if v.Spec.Retier {
		kill, faultAfter = "retier-dest", v.Spec.RetierAfter
	} else if v.Spec.KillDest {
		kill = fmt.Sprintf("dest[%d]", v.Spec.VictimIdx)
	}
	return []string{fmt.Sprint(v.Params.Seed), kill, fmt.Sprint(v.Spec.MigrateAt),
		fmt.Sprint(faultAfter), fmt.Sprintf("%d/%d", v.Acked, v.Errored),
		fmt.Sprint(v.Migrated), v.Checks.Summary()}
}

func (v MigrationVerdict) detail(e *Env) {
	lines := make([]string, len(v.Timeline))
	for i, ev := range v.Timeline {
		lines[i] = fmt.Sprintf("%v  %s", ev.At, ev.What)
	}
	printDetail(e, v.Spec, lines, v.Checks)
}

// migrationMatrix runs and renders n migration-inflight scenarios seeded
// e.Seed..+n-1 — the one migrate table, shared by `hl migrate` and the
// migration-inflight class of `hl chaos`.
func migrationMatrix(e *Env, n int) {
	printVerdicts(e, fmt.Sprintf("Migration-inflight: %d scenarios (base seed %d)", n, e.Seed),
		seedMatrix(e.Seed, n, migrationAt), "seed", "kill", "migrate@", "fault+", "puts ok/err", "migrated", "checks")
}

// migrateScenario runs the migration-inflight chaos matrix on its own.
func migrateScenario(e *Env) error {
	n := e.Int("seeds")
	if e.Quick && n > 2 {
		n = 2
	}
	migrationMatrix(e, n)
	printSummary(e, "scenarios")
	return nil
}

// shardOps is the per-shard op count of the scaling scenarios.
func shardOps(e *Env) int {
	if e.Quick {
		return 150
	}
	return 400
}

// scalingScenario prints the shard-count scaling curve on the fixed host
// pool. A requested dump re-runs the sweep with registries attached and
// merges them in sweep order.
func scalingScenario(e *Env) error {
	ops := shardOps(e)
	e.Printf("=== Shard scaling: aggregate gWRITE throughput, 16-host pool, %d ops/shard ===\n", ops)
	t := stats.NewTable("shards", "acked", "elapsed", "kops/s", "avg", "p99", "max-shard-p99")
	for _, r := range ShardScaling(e.Seed, ops, false) {
		t.AddRow(fmt.Sprint(r.Shards), fmt.Sprint(r.Acked), fmt.Sprint(r.Elapsed),
			fmt.Sprintf("%.1f", r.TputKops), us(r.Lat.Mean), us(r.Lat.P99), us(r.MaxShardP99))
	}
	e.Table(t)
	if e.Metrics != nil {
		for _, r := range ShardScaling(e.Seed, ops, true) {
			e.Merge(r.Reg)
		}
	}
	return nil
}
