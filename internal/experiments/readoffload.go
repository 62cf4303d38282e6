package experiments

import (
	"errors"
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/core"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/metrics"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// Read-offload experiment (DESIGN.md §17): the CRAQ clean/dirty protocol
// lets every chain replica serve reads, so read throughput should scale with
// the chain length instead of bottlenecking on one node. Each cell runs a
// read-mostly YCSB mix (B: zipfian 95/5 read/update; D: latest 95/5
// read/insert) against a partitioned shard plane with CRAQ enabled, under
// one of two read policies:
//
//   - "tail":   every read targets the tail replica — the pre-CRAQ baseline,
//     where only one node's read path absorbs the whole load;
//   - "spread": reads round-robin across the chain; clean keys are served
//     wherever they land and only dirty keys pay the tail forward.
//
// The replica read path serializes on its QP (one RDMA READ in flight per
// replica), so "tail" is capacity-bound at one reader regardless of chain
// length while "spread" scales with it — that contrast is the cell's
// deliverable. Cells are bit-identical at any -parallel or -engine-workers
// setting: all workload state is partition-local and cross-group traffic
// rides the deterministic inter-group link.

const (
	// roRegion sizes each group's shard region; slots carry the kvstore's
	// 1 KiB default cap, so the WAL ring (region/4) holds ~250 in-flight
	// records — headroom over the write pipeline.
	roRegion    = 1 << 20
	roKeyset    = 256 // preloaded records per group
	roValueSize = 128
)

// ReadOffloadParams selects one read-offload cell.
type ReadOffloadParams struct {
	// Workload is the YCSB mix: "B" (zipfian, 95/5 read/update) or "D"
	// (latest, 95/5 read/insert). Default "B".
	Workload string
	// Replicas is the chain length (default 3).
	Replicas int
	// Policy is "tail" or "spread" (default "spread").
	Policy string
	Seed   int64
	// OpsPerGroup is the measured operation count per group (default 1200).
	OpsPerGroup int
	// Pipeline is the closed-loop strand count per group (default 16 —
	// deep enough that a 5-7 replica chain still has queued demand to
	// absorb, so the spread policy's scaling is visible, not load-limited).
	Pipeline int
	// Groups is the shard-group / sim-partition count (default 2).
	Groups int
	// Workers is the engine worker count (0 = all cores, 1 = serial).
	Workers int
}

func (p *ReadOffloadParams) fill() {
	if p.Workload == "" {
		p.Workload = "B"
	}
	if p.Replicas <= 0 {
		p.Replicas = 3
	}
	if p.Policy == "" {
		p.Policy = "spread"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.OpsPerGroup <= 0 {
		p.OpsPerGroup = 1200
	}
	if p.Pipeline <= 0 {
		p.Pipeline = 16
	}
	if p.Groups <= 0 {
		p.Groups = 2
	}
}

// ReadOffloadResult is one read-offload cell.
type ReadOffloadResult struct {
	Workload string
	Replicas int
	Policy   string
	Workers  int
	// Reads / Writes are completed ops across all groups (writes cover
	// updates and inserts).
	Reads  int
	Writes int
	// Clean / Dirty are the CRAQ serving-path counts summed over shards: a
	// clean read was served by the queried replica, a dirty read forwarded
	// to the tail.
	Clean uint64
	Dirty uint64
	// NotFound / Stale count reads that raced an in-flight insert or an
	// uncommitted slot — reported, never hidden.
	NotFound int
	Stale    int
	// Elapsed is the slowest group's measured span; ReadTputKops is total
	// reads over that span.
	Elapsed      sim.Duration
	ReadTputKops float64
	ReadLat      stats.Summary
	// Skew is the conservative-lookahead invariant verdict.
	Skew check.Result
}

func (r ReadOffloadResult) String() string {
	return fmt.Sprintf("ycsb-%s chain=%d policy=%-6s reads=%d writes=%d clean=%d dirty=%d read-tput=%.1f kops/s p99=%v",
		r.Workload, r.Replicas, r.Policy, r.Reads, r.Writes, r.Clean, r.Dirty, r.ReadTputKops, r.ReadLat.P99)
}

// RunReadOffload runs one read-offload cell.
func RunReadOffload(p ReadOffloadParams) ReadOffloadResult {
	p.fill()
	w, ok := ycsb.Workloads[p.Workload]
	if !ok {
		panic(fmt.Sprintf("read-offload: unknown workload %q", p.Workload))
	}
	pp := shard.NewPartitionedPlane(shard.PartitionedConfig{
		Groups:         p.Groups,
		ShardsPerGroup: 1,
		HostsPerGroup:  p.Replicas,
		Replicas:       p.Replicas,
		RegionSize:     roRegion,
		CommitEvery:    2, // small commit batches: a real dirty window between append and commit
		Group:          core.Config{Depth: 512},
		CRAQ:           true,
		Seed:           p.Seed,
		Workers:        p.Workers,
	})
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		panic(fmt.Sprintf("read-offload: %v", err))
	}
	groups := pp.Groups()

	// Per-group key lists, grown on demand: index i maps to the i-th key
	// that hashes home to the group, so workload-D inserts extend the list
	// without ever leaving the partition.
	keys := make([][]string, groups)
	scan := make([]int64, groups)
	keyAt := func(g int, idx int64) string {
		for int64(len(keys[g])) <= idx {
			k := fmt.Sprintf("ro%d/%s", g, ycsb.KeyName(scan[g]))
			scan[g]++
			if pp.HomeGroup(k) == g {
				keys[g] = append(keys[g], k)
			}
		}
		return keys[g][idx]
	}

	gens := make([]*ycsb.Generator, groups)
	vals := make([]*ycsb.ValueGenerator, groups)
	for g := 0; g < groups; g++ {
		gens[g] = ycsb.NewGenerator(w, roKeyset, p.Seed+int64(g)*1009)
		vals[g] = ycsb.NewValueGenerator(roValueSize, p.Seed+int64(g)*1013)
	}

	// Phase 1: preload the keyset, then drain commits so every key is clean.
	loaded := make([]int, groups)
	for g := 0; g < groups; g++ {
		g := g
		eng := pp.PE.Partition(g)
		var load func(i int64, v []byte)
		load = func(i int64, v []byte) {
			if v == nil {
				v = vals[g].Next(i)
			}
			pp.Put(g, keyAt(g, i), v, func(err error) {
				if errors.Is(err, wal.ErrLogFull) {
					eng.Schedule(2*sim.Microsecond, func() { load(i, v) })
					return
				}
				if err != nil {
					panic(fmt.Sprintf("read-offload: preload: %v", err))
				}
				loaded[g]++
				if next := i + int64(p.Pipeline); next < roKeyset {
					load(next, nil)
				}
			})
		}
		eng.Schedule(0, func() {
			for i := int64(0); i < int64(p.Pipeline) && i < roKeyset; i++ {
				load(i, nil)
			}
		})
	}
	driveAll(pp, func() bool {
		for g := range loaded {
			if loaded[g] < roKeyset {
				return false
			}
		}
		return true
	}, "preload")
	commitAll(pp)

	// Phase 2: the measured mix. All per-group state below is touched only
	// by its own partition.
	target := p.OpsPerGroup
	done := make([]int, groups)
	reads := make([]int, groups)
	writes := make([]int, groups)
	notFound := make([]int, groups)
	stale := make([]int, groups)
	rr := make([]int, groups)
	hists := make([]*stats.Histogram, groups)
	start := make([]sim.Time, groups)
	finish := make([]sim.Time, groups)
	for g := range hists {
		hists[g] = stats.NewHistogram()
	}
	for g := 0; g < groups; g++ {
		g := g
		eng := pp.PE.Partition(g)
		pl := pp.Group(g)
		var issue func()
		var submit func(k string, v []byte)
		submit = func(k string, v []byte) {
			pp.Put(g, k, v, func(err error) {
				if errors.Is(err, wal.ErrLogFull) {
					eng.Schedule(2*sim.Microsecond, func() { submit(k, v) })
					return
				}
				if err != nil {
					panic(fmt.Sprintf("read-offload: put: %v", err))
				}
				writes[g]++
				done[g]++
				if done[g] == target {
					finish[g] = eng.Now()
				}
				issue()
			})
		}
		issue = func() {
			if done[g] >= target {
				return
			}
			op := gens[g].Next()
			switch op.Type {
			case ycsb.Read:
				k := keyAt(g, op.Key)
				r := -1 // tail
				if p.Policy == "spread" {
					r = rr[g] % p.Replicas
					rr[g]++
				}
				issuedAt := eng.Now()
				pl.ReadCRAQ(k, r, func(_ []byte, _ bool, err error) {
					switch {
					case err == nil:
					case errors.Is(err, kvstore.ErrNotFound):
						notFound[g]++
					case errors.Is(err, kvstore.ErrStale):
						stale[g]++
					default:
						panic(fmt.Sprintf("read-offload: read: %v", err))
					}
					hists[g].Record(eng.Now().Sub(issuedAt))
					reads[g]++
					done[g]++
					if done[g] == target {
						finish[g] = eng.Now()
					}
					issue()
				})
			default:
				// Updates and inserts both land as puts; an insert's fresh
				// key extends the group-local list.
				submit(keyAt(g, op.Key), vals[g].Next(op.Key))
			}
		}
		eng.Schedule(0, func() {
			start[g] = eng.Now()
			for i := 0; i < p.Pipeline; i++ {
				issue()
			}
		})
	}
	driveAll(pp, func() bool {
		for g := range done {
			if done[g] < target {
				return false
			}
		}
		return true
	}, "measure")
	commitAll(pp)
	skew := check.PartitionSkew(pp.PE)

	res := ReadOffloadResult{
		Workload: p.Workload, Replicas: p.Replicas, Policy: p.Policy,
		Workers: p.Workers, Skew: skew,
	}
	agg := stats.NewHistogram()
	var span sim.Duration
	for g := 0; g < groups; g++ {
		res.Reads += reads[g]
		res.Writes += writes[g]
		res.NotFound += notFound[g]
		res.Stale += stale[g]
		c, d := pp.Group(g).Shard(0).DB().CRAQStats()
		res.Clean += c
		res.Dirty += d
		agg.Merge(hists[g])
		if el := finish[g].Sub(start[g]); el > span {
			span = el
		}
	}
	pp.Close()
	res.Elapsed = span
	res.ReadTputKops = float64(res.Reads) / span.Seconds() / 1e3
	res.ReadLat = agg.Summarize()
	return res
}

// driveAll runs the partitioned engine in deterministic chunks until cond
// holds (checked only between Run calls, when no worker is live).
func driveAll(pp *shard.PartitionedPlane, cond func() bool, what string) {
	deadline := pp.PE.Partition(0).Now()
	limit := deadline.Add(60 * sim.Second)
	for !cond() {
		deadline = deadline.Add(500 * sim.Microsecond)
		if deadline >= limit {
			panic(fmt.Sprintf("read-offload: %s stalled", what))
		}
		pp.PE.Run(deadline)
	}
}

// commitAll drains every group's WAL executor and surfaces any error.
func commitAll(pp *shard.PartitionedPlane) {
	slots := pp.CommitAll()
	flagged := make([]bool, len(slots))
	for g := range slots {
		g := g
		pp.PE.Partition(g).Schedule(0, func() {
			pp.Group(g).Commit(func(error) { flagged[g] = true })
		})
	}
	driveAll(pp, func() bool {
		for _, f := range flagged {
			if !f {
				return false
			}
		}
		return true
	}, "commit")
	for _, s := range slots {
		if *s != nil {
			panic(fmt.Sprintf("read-offload: commit: %v", *s))
		}
	}
}

// ReadOffloadCell is one (chain length, policy) point of the scaling table.
type ReadOffloadCell struct {
	Replicas int
	Tail     ReadOffloadResult
	Spread   ReadOffloadResult
}

// Speedup is spread read throughput over tail read throughput.
func (c ReadOffloadCell) Speedup() float64 {
	if c.Tail.ReadTputKops == 0 {
		return 0
	}
	return c.Spread.ReadTputKops / c.Tail.ReadTputKops
}

// Pass reports whether both runs kept the conservative-lookahead invariant.
func (c ReadOffloadCell) Pass() bool { return c.Tail.Skew.Pass() && c.Spread.Skew.Pass() }

func (c ReadOffloadCell) registry() *metrics.Registry { return nil }
func (c ReadOffloadCell) detail(*Env)                 {}

func (c ReadOffloadCell) row() []string {
	return []string{fmt.Sprint(c.Replicas),
		fmt.Sprintf("%.1f", c.Tail.ReadTputKops),
		fmt.Sprintf("%.1f", c.Spread.ReadTputKops),
		fmt.Sprintf("%.2fx", c.Speedup()),
		fmt.Sprintf("%d/%d", c.Spread.Clean, c.Spread.Dirty),
		fmt.Sprint(c.Tail.ReadLat.P50), fmt.Sprint(c.Spread.ReadLat.P50)}
}

// ReadOffloadSweep runs the chain-length sweep for one workload: each chain
// length measured under both policies. Cells run via RunParallel (ordered by
// index), each internally partition-parallel at p.Workers.
func ReadOffloadSweep(workload string, chains []int, seed int64, workers int) []ReadOffloadCell {
	type job struct {
		replicas int
		policy   string
	}
	jobs := make([]job, 0, 2*len(chains))
	for _, c := range chains {
		jobs = append(jobs, job{c, "tail"}, job{c, "spread"})
	}
	results, err := RunParallel(Parallelism(), len(jobs), func(i int) (ReadOffloadResult, error) {
		return RunReadOffload(ReadOffloadParams{
			Workload: workload, Replicas: jobs[i].replicas, Policy: jobs[i].policy,
			Seed: seed, Workers: workers,
		}), nil
	})
	if err != nil {
		panic(err)
	}
	cells := make([]ReadOffloadCell, len(chains))
	for i, c := range chains {
		cells[i] = ReadOffloadCell{Replicas: c, Tail: results[2*i], Spread: results[2*i+1]}
	}
	return cells
}
