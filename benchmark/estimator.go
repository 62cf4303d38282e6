package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest element with at least p% of the samples at
// or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileTies is percentile for whole-number samples (modeled ns): the
// ties at the nearest-rank value v are spread evenly over [v-½, v+½), so the
// estimate keeps sub-ns resolution when thousands of samples share one ns
// (300k gWRITE latencies put ~1000 samples on the median's ns, and nearest
// rank alone then reads the same to the digit for every seed). It is within
// half a ns of the nearest-rank value, and equal to it when v is unique.
func percentileTies(sorted []float64, p float64) float64 {
	v := percentile(sorted, p)
	if math.IsNaN(v) {
		return v
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	below := sort.SearchFloat64s(sorted, v)
	equal := sort.SearchFloat64s(sorted, v+0.5) - below
	return v - 0.5 + (float64(rank-below)-0.5)/float64(equal)
}

// median returns the middle value (mean of the two middle values for an even
// count); it sorts a copy.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method, at least two
// samples): position i*(n+1)/4 on the 1-based sorted sample, linearly
// interpolated. The driver judges spreads with that function, so calibration
// must too.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// chunkTimer cuts a measured phase into equal-op chunks and estimates the
// uncontended host cost per op as the 10th percentile of chunk wall ÷ chunk
// ops. On this shared 2-core box a neighbour inflates whole-run means by up
// to 1.8x (cache/SMT contention, process CPU time moves with it), while the
// low percentile of many short chunks repeats within ~2% (README, "Noise").
type chunkTimer struct {
	perOpNs []float64
	totalNs float64
	ops     int
	last    time.Time
}

func newChunkTimer(chunks int) *chunkTimer {
	return &chunkTimer{perOpNs: make([]float64, 0, chunks), last: time.Now()}
}

// start re-arms the timer at the beginning of a chunk (excluding whatever
// the harness did since the previous chunk ended).
func (c *chunkTimer) start() { c.last = time.Now() }

// end closes a chunk that executed ops operations.
func (c *chunkTimer) end(ops int) {
	now := time.Now()
	ns := float64(now.Sub(c.last).Nanoseconds())
	c.last = now
	c.perOpNs = append(c.perOpNs, ns/float64(ops))
	c.totalNs += ns
	c.ops += ops
}

// p10 is the estimator: the 10th percentile of per-op chunk costs, in ns.
func (c *chunkTimer) p10() float64 { return c.pct(10) }

func (c *chunkTimer) pct(p float64) float64 {
	s := append([]float64(nil), c.perOpNs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// mean is the whole-run mean in ns per op — reported only per layer, to show
// the noise + GC gap against p10.
func (c *chunkTimer) mean() float64 { return c.totalNs / float64(c.ops) }

// memDelta is the Go-runtime cost of a measured phase.
type memDelta struct {
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

type memMark struct{ ms runtime.MemStats }

func markMem() *memMark {
	m := &memMark{}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *memMark) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs: now.Mallocs - m.ms.Mallocs,
		bytes:   now.TotalAlloc - m.ms.TotalAlloc,
		gcs:     now.NumGC - m.ms.NumGC,
	}
}

// peakRSSMiB is getrusage's max resident set of this process (Linux reports
// KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// simLatency summarises modeled latencies (ns) exactly — sorted samples, no
// histogram buckets — and checks the summary is internally consistent.
type simLatency struct {
	n                 int
	p50, p99, p999    float64
	min, max, mean    float64
	beyondP999Samples int
}

func summarize(ns []int64) (simLatency, error) {
	if len(ns) == 0 {
		return simLatency{}, fmt.Errorf("no latency samples")
	}
	s := make([]float64, len(ns))
	sum := 0.0
	for i, v := range ns {
		s[i] = float64(v)
		sum += s[i]
	}
	sort.Float64s(s)
	l := simLatency{
		n:   len(s),
		p50: percentileTies(s, 50), p99: percentileTies(s, 99), p999: percentileTies(s, 99.9),
		min: s[0], max: s[len(s)-1], mean: sum / float64(len(s)),
	}
	l.beyondP999Samples = len(s) - int(math.Ceil(0.999*float64(len(s))))
	return l, l.check()
}

// check enforces what a latency summary must satisfy whatever the workload:
// ordered percentiles and a mean inside [min, max]. (A first cut of this
// benchmark reported a mean of 11.6µs under a 179µs median unnoticed.)
func (l simLatency) check() error {
	// Tie-spread percentiles may sit up to half a ns outside [min, max].
	if !(l.min-0.5 <= l.p50 && l.p50 <= l.p99 && l.p99 <= l.p999 && l.p999 <= l.max+0.5) {
		return fmt.Errorf("latency percentiles out of order: min %v p50 %v p99 %v p99.9 %v max %v",
			l.min, l.p50, l.p99, l.p999, l.max)
	}
	if l.mean < l.min || l.mean > l.max {
		return fmt.Errorf("latency mean %v outside [%v, %v]", l.mean, l.min, l.max)
	}
	return nil
}
