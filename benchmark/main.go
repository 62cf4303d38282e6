// Command benchmark is the repository's two-clock benchmark: four workloads
// over the simulated HyperLoop stack, each reporting the modeled clock
// (sim_*, deterministic for a seed) and the host clock / Go runtime (what
// the simulator costs per simulated op), plus — with -trace 1 — per-layer
// metrics taken from outside the program. See README.md in this directory.
//
//	go run . -workload prims -seed 1 -seconds 10 -trace 0
//
// One invocation runs one workload in a fresh process, prints every metric
// by name with its unit, verifies the program's outputs, and exits non-zero
// on any failed check. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"hyperloop/internal/rdma"
)

// workload is one benchmark workload: run is the untraced end-to-end pass,
// trace the per-layer pass.
type workload struct {
	name  string
	run   func(seed int64, scale float64, rep *report) error
	trace func(seed int64, scale float64, rep *report) error
}

var workloads = []workload{
	{"prims",
		func(s int64, f float64, r *report) error { return runPrims("prims", s, f, r) },
		func(s int64, f float64, r *report) error { return tracePrims("prims", s, f, r) }},
	{"naive_coloc",
		func(s int64, f float64, r *report) error { return runPrims("naive_coloc", s, f, r) },
		func(s int64, f float64, r *report) error { return tracePrims("naive_coloc", s, f, r) }},
	{"txn_kv", runTxnKV, traceTxnKV},
	{"served", runServed, traceServed},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runSeconds is the run length the op counts are sized for; -seconds scales
// ops per chunk linearly from it (never the chunk count).
const runSeconds = 10

func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 1 {
		v = 1
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup runs the set-up three times and returns the median wall time:
// raw wall time cannot be chunked, so repeating it is the only defence
// against a neighbour landing on one of them. drop releases the previous
// build (untimed, followed by a collection, so peak RSS counts one live
// topology rather than three); the last build is the one the measured phase
// uses.
func timeSetup(drop func(), build func() error) (float64, error) {
	var secs []float64
	for i := 0; i < 3; i++ {
		drop()
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics; only declared names are accepted and
// every declared name of the selected set is emitted (0 when the workload
// does not exercise the layer — README, "Per-layer metrics").
type report struct {
	workload  string
	traced    bool
	correct   bool
	attempted int
	failed    int
	refused   int // arrivals admission control turned away: not failures, but in harness.fail_frac
	values    map[string]metricValue
	notes     [][2]string
	err       error
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]metricValue{}}
}

func (r *report) note(k, v string) { r.notes = append(r.notes, [2]string{k, v}) }

func (r *report) set(decls []metricDecl, name, unit string, v float64) {
	d := findDecl(decls, name)
	switch {
	case d == nil:
		r.fault(fmt.Errorf("metric %q is not declared", name))
	case d.unit != unit:
		r.fault(fmt.Errorf("metric %q reported in %q, declared %q", name, unit, d.unit))
	case math.IsNaN(v) || math.IsInf(v, 0):
		r.fault(fmt.Errorf("metric %q is not finite: %v", name, v))
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

func (r *report) fault(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *report) layer(name, unit string, v float64) { r.set(perLayer, name, unit, v) }

func (r *report) e2e(name, unit string, v float64) { r.set(endToEnd, name, unit, v) }

// endToEnd fills the end-to-end set, the same names on every workload.
func (r *report) endToEnd(l simLatency, goodputKops, maxRateKops float64,
	ct *chunkTimer, mem memDelta, ops int, setupS float64) {
	r.e2e("sim_p50_us", "us", l.p50/1e3)
	r.e2e("sim_p99_us", "us", l.p99/1e3)
	r.e2e("sim_p999_us", "us", l.p999/1e3)
	r.e2e("sim_goodput_kops", "kops", goodputKops)
	r.e2e("sim_max_rate_kops", "kops", maxRateKops)
	r.e2e("wall_us_per_op", "us", ct.p10()/1e3)
	r.e2e("allocs_per_op", "count", float64(mem.mallocs)/float64(ops))
	r.e2e("alloc_kb_per_op", "KiB", float64(mem.bytes)/float64(ops)/1024)
	r.e2e("peak_rss_mb", "MiB", peakRSSMiB())
	r.e2e("setup_s", "s", setupS)
	r.note("chunks", fmt.Sprintf("%d host-timed chunks: p10 %.3f, p50 %.3f, p90 %.3f, whole-run mean %.3f us/op; %d GC cycles",
		len(ct.perOpNs), ct.pct(10)/1e3, ct.pct(50)/1e3, ct.pct(90)/1e3, ct.mean()/1e3, mem.gcs))
}

// trafficLayer fills the engine and fabric counters every workload reads:
// events fired, messages delivered and bytes sent over ops operations that
// carried userBytes of payload, with p10Ns the pass's host cost per op.
func (r *report) trafficLayer(fired, msgs, bytes uint64, userBytes, p10Ns, ops float64) {
	r.layer("sim.events_per_op", "count", float64(fired)/ops)
	r.layer("sim.wall_ns_per_event", "ns", p10Ns*ops/float64(fired))
	r.layer("fabric.msgs_per_op", "count", float64(msgs)/ops)
	r.layer("fabric.bytes_per_op", "B", float64(bytes)/ops)
	r.layer("fabric.bytes_per_user_byte", "ratio", float64(bytes)/userBytes)
}

func (r *report) nicLayer(c rdma.Counters, ops float64) {
	r.layer("rdma.wqes_per_op", "count", float64(c.WQEsExecuted)/ops)
	r.layer("rdma.doorbells_per_op", "count", float64(c.Doorbells)/ops)
	r.layer("rdma.cache_flushes_per_op", "count", float64(c.CacheFlushes)/ops)
	r.layer("rdma.prog_branches_per_op", "count", float64(c.ProgBranches)/ops)
	r.layer("rdma.rnr_per_op", "count", float64(c.RNRs)/ops)
}

func (r *report) runtimeLayer(ct *chunkTimer, mem memDelta, ops int) {
	r.layer("runtime.gc_cycles_per_kop", "count", float64(mem.gcs)/float64(ops)*1e3)
	r.layer("runtime.wall_mean_us_per_op", "us", ct.mean()/1e3)
	r.layer("runtime.wall_p10_us_per_op", "us", ct.p10()/1e3)
}

// finish fills undeclared-but-selected metrics with 0 and settles the
// verdict: correct only if no check failed and every value is finite.
func (r *report) finish(runErr error) {
	if runErr != nil {
		r.fault(runErr)
	}
	decls := endToEnd
	if r.traced {
		decls = perLayer
		r.layer("harness.fail_frac", "ratio", ratio(float64(r.failed+r.refused), float64(r.attempted)))
	}
	out := map[string]metricValue{}
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok {
			if !r.traced {
				r.fault(fmt.Errorf("end-to-end metric %q was not measured", d.name))
			}
			v = metricValue{Unit: d.unit}
		}
		out[d.name] = v
	}
	r.values = out
	r.correct = r.err == nil && r.failed == 0
}

// print writes the human-readable table and, last, the driver's JSON line.
func (r *report) print(seed int64, seconds int) {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", r.workload, seed, seconds, r.traced)
	fmt.Printf("env %s GOMAXPROCS=%d cores=%d GOGC=100 %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	for _, n := range r.notes {
		fmt.Printf("%s %s\n", n[0], n[1])
	}
	decls := endToEnd
	if r.traced {
		decls = perLayer
	}
	for _, d := range decls {
		v := r.values[d.name]
		fmt.Printf("%-40s %16.6f %-6s [%s clock]\n", d.name, v.Value, v.Unit, d.clock)
	}
	if r.err != nil {
		fmt.Printf("FAILED %v\n", r.err)
	}
	if r.attempted < 1 {
		r.attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.values})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOne executes one workload pass in this process.
func runOne(w *workload, seed int64, scale float64, traced bool) *report {
	rep := newReport(w.name, traced)
	pass := w.run
	if traced {
		pass = w.trace
	}
	rep.finish(pass(seed, scale, rep))
	return rep
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := flag.Int("seconds", runSeconds, "run length the op counts are sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	calibrate := flag.Int("calibrate", 0, "run two sets of N full runs per workload and print calibrated bounds")
	flag.Parse()

	// The two knobs that move Go-runtime numbers are pinned, whatever the
	// environment says.
	debug.SetGCPercent(100)

	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in [1, 60]")
		os.Exit(2)
	}
	if *seed == 0 {
		// The program's configs read seed 0 as "default" (1); keep seed 0 a
		// stream of its own.
		*seed = 0x5eed0
	}
	if *calibrate > 0 {
		if err := runCalibration(*calibrate, *seed, *seconds, *name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep := runOne(w, *seed, float64(*seconds)/runSeconds, *trace != 0)
	rep.print(*seed, *seconds)
	if !rep.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	sort.Strings(out)
	return out
}
