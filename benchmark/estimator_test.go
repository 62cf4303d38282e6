package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refPercentile is the sorted reference: count, don't index.
func refPercentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, x := range s {
		atOrBelow := 0
		for _, y := range s {
			if y <= x {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestPercentileMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(50)) // plenty of ties
		}
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		for _, p := range []float64{10, 50, 99, 99.9, 100} {
			want := refPercentile(v, p)
			if got := percentile(s, p); got != want {
				t.Errorf("n=%d p=%v: got %v, reference %v", n, p, got, want)
			}
			if got := percentileTies(s, p); math.Abs(got-want) > 0.5 {
				t.Errorf("n=%d p=%v: tie-spread %v strays more than half a unit from %v", n, p, got, want)
			}
		}
	}
	if got := percentileTies([]float64{1, 5, 9}, 50); got != 5 {
		t.Errorf("unique sample: tie-spread median %v, want 5", got)
	}
}

func TestPercentileTiesResolvesBelowOneUnit(t *testing.T) {
	// 1000 samples on the median's value: moving the rank inside the tie
	// moves the estimate.
	a := make([]float64, 0, 3000)
	for i := 0; i < 1000; i++ {
		a = append(a, 10, 11, 12)
	}
	sort.Float64s(a)
	lo, hi := percentileTies(a, 40), percentileTies(a, 60)
	if percentile(a, 40) != 11 || percentile(a, 60) != 11 || !(lo < hi) || lo < 10.5 || hi >= 11.5 {
		t.Errorf("p40 %v, p60 %v: want 10.5 <= p40 < p60 < 11.5", lo, hi)
	}
}

func TestChunkP10(t *testing.T) {
	ct := &chunkTimer{}
	// 20 chunks of 10 ops costing 1..20 ns per op; a contended neighbour
	// triples the last five.
	for i := 1; i <= 20; i++ {
		perOp := float64(i)
		if i > 15 {
			perOp *= 3
		}
		ct.perOpNs = append(ct.perOpNs, perOp)
		ct.totalNs += perOp * 10
		ct.ops += 10
	}
	if got := ct.p10(); got != refPercentile(ct.perOpNs, 10) || got != 2 {
		t.Errorf("p10 %v, want 2", got)
	}
	if got, want := ct.mean(), (120.0+3*90)/20; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %v, %v; want 1.5, 12", q1, q3)
	}
	if m := median(v); m != 5.5 {
		t.Errorf("median %v, want 5.5", m)
	}
}

func TestSummarizeRejectsInconsistentLatencies(t *testing.T) {
	l, err := summarize([]int64{5, 1, 9, 3, 7})
	if err != nil || l.p50 != 5 || l.min != 1 || l.max != 9 || l.mean != 5 {
		t.Fatalf("summarize: %+v, %v", l, err)
	}
	bad := simLatency{min: 100, p50: 179000, p99: 180000, p999: 181000, max: 200000, mean: 11600}
	bad.mean = 50 // below min: the failure a first cut of the benchmark shipped
	if bad.check() == nil {
		t.Error("mean below min accepted")
	}
	if (simLatency{min: 1, p50: 9, p99: 8, p999: 10, max: 10, mean: 5}).check() == nil {
		t.Error("p50 > p99 accepted")
	}
}

func TestBoundRule(t *testing.T) {
	for _, c := range []struct{ floor, worst, want float64 }{
		{0.01, 0.001, 0.01},  // floor wins
		{0.01, 0.011, 0.035}, // 3 × 1.1% rounded up to 0.5%
		{0.15, 0.02, 0.15},
		{0.15, 0.2, 0.25}, // capped
	} {
		if got := boundFor(c.floor, c.worst); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("boundFor(%v, %v) = %v, want %v", c.floor, c.worst, got, c.want)
		}
	}
}
