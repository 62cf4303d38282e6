package experiments

import (
	"fmt"
	"testing"
)

// renderReadOffload flattens a result for byte comparison across worker
// counts (wall-clock-free: everything here is virtual-time derived).
func renderReadOffload(r ReadOffloadResult) string {
	return fmt.Sprintf("%s notfound=%d stale=%d elapsed=%v lat=[p50=%v p99=%v max=%v] skew-pass=%v\n",
		r.String(), r.NotFound, r.Stale, r.Elapsed,
		r.ReadLat.P50, r.ReadLat.P99, r.ReadLat.Max, r.Skew.Pass())
}

// TestReadOffloadScalesWithChainLength is the acceptance gate: under the
// spread policy read throughput grows with the chain length, under the
// tail-only baseline it stays flat — the offload is what buys the scaling.
func TestReadOffloadScalesWithChainLength(t *testing.T) {
	cells := ReadOffloadSweep("B", []int{2, 5}, 3, 1)
	short, long := cells[0], cells[1]
	for _, c := range cells {
		for _, r := range []ReadOffloadResult{c.Tail, c.Spread} {
			if !r.Skew.Pass() {
				t.Errorf("chain=%d %s: %v", c.Replicas, r.Policy, r.Skew)
			}
			if r.Clean == 0 || r.Reads == 0 {
				t.Errorf("chain=%d %s: no reads served (%+v)", c.Replicas, r.Policy, r)
			}
		}
		if c.Spread.Dirty == 0 {
			t.Errorf("chain=%d: dirty path never exercised", c.Replicas)
		}
		if testing.Verbose() {
			t.Logf("chain=%d tail:   %s", c.Replicas, renderReadOffload(c.Tail))
			t.Logf("chain=%d spread: %s", c.Replicas, renderReadOffload(c.Spread))
		}
	}
	// Tail-only is capacity-bound at one replica's read path: going from 2
	// to 5 replicas must not buy meaningful throughput.
	if ratio := long.Tail.ReadTputKops / short.Tail.ReadTputKops; ratio > 1.25 {
		t.Errorf("tail policy scaled with chain length (%.2fx) — baseline should be flat", ratio)
	}
	// Spread serves clean reads at every replica: the longer chain must beat
	// the shorter one, and at chain=5 it must clearly beat the tail baseline.
	if long.Spread.ReadTputKops <= 1.3*short.Spread.ReadTputKops {
		t.Errorf("spread did not scale: chain=5 %.1f vs chain=2 %.1f kops/s",
			long.Spread.ReadTputKops, short.Spread.ReadTputKops)
	}
	if long.Speedup() < 1.5 {
		t.Errorf("chain=5 spread/tail speedup %.2fx < 1.5x", long.Speedup())
	}
}

// TestReadOffloadWorkloadD runs the latest-distribution mix: reads chase
// freshly inserted keys, so the dirty path and the raced-insert counters
// must light up while the run still completes cleanly.
func TestReadOffloadWorkloadD(t *testing.T) {
	r := RunReadOffload(ReadOffloadParams{Workload: "D", Replicas: 3, Policy: "spread", Seed: 5, Workers: 1})
	if !r.Skew.Pass() {
		t.Fatalf("skew: %v", r.Skew)
	}
	if r.Dirty == 0 {
		t.Fatal("workload D never hit the dirty path")
	}
	if r.Writes == 0 {
		t.Fatal("workload D generated no inserts")
	}
	if testing.Verbose() {
		t.Logf("%s", renderReadOffload(r))
	}
}

// TestReadOffloadDeterministicAcrossWorkers pins the cell's bit-identity at
// any engine worker count — the hl restore CI gate in miniature.
func TestReadOffloadDeterministicAcrossWorkers(t *testing.T) {
	p := ReadOffloadParams{Workload: "B", Replicas: 3, Policy: "spread", Seed: 7}
	p.Workers = 1
	a := renderReadOffload(RunReadOffload(p))
	p.Workers = 4
	b := renderReadOffload(RunReadOffload(p))
	if a != b {
		t.Fatalf("results diverged across worker counts:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", a, b)
	}
}
