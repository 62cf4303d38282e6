package main

import (
	"math"
	"testing"
)

func TestSelfCostsSumBackToTopRung(t *testing.T) {
	cum := []float64{10, 60, 2000, 24000, 85000, 90000, 90500, 98000}
	self := selfCosts(cum)
	sum := 0.0
	for i, s := range self {
		if s < 0 {
			t.Errorf("layer %d: negative self cost %v", i, s)
		}
		sum += s
	}
	if sum != cum[len(cum)-1] {
		t.Errorf("self costs sum to %v, top rung is %v", sum, cum[len(cum)-1])
	}
	if self[3] != 22000 {
		t.Errorf("layer 3 self cost %v, want rung minus the rung below = 22000", self[3])
	}
}

func TestSelfCostsNeverNegative(t *testing.T) {
	// Rung 2 measures under rung 1 (noise, or an earlier ack): it costs 0
	// and rung 3 is charged from the highest rung so far.
	self := selfCosts([]float64{10, 90, 88, 98})
	want := []float64{10, 80, 0, 8}
	sum := 0.0
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != 98 {
		t.Errorf("sum %v, want the highest rung 98", sum)
	}
}

func TestKneeInterpolation(t *testing.T) {
	rungs := []int{80, 90, 100}
	// 80 passes at 99.8%, 90 misses at 98.2%: the 99% crossing is halfway.
	if got := kneeOf(rungs, []float64{0.998, 0.982}, []bool{true, false}); math.Abs(got-85) > 1e-9 {
		t.Errorf("knee %v, want 85", got)
	}
	if got := kneeOf(rungs, []float64{0.9}, []bool{false}); got != 0 {
		t.Errorf("nothing passes: knee %v, want 0", got)
	}
	if got := kneeOf(rungs, []float64{1, 1, 0.995}, []bool{true, true, true}); got != 100 {
		t.Errorf("everything passes: knee %v, want the top rung", got)
	}
	// A rung that meets the latency limit but leaves arrivals unserved
	// still misses; there is no crossing to interpolate to.
	if got := kneeOf(rungs, []float64{0.999, 0.995}, []bool{true, false}); got != 80 {
		t.Errorf("unserved-only miss: knee %v, want 80", got)
	}
}
