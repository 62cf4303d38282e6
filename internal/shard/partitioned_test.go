package shard

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/check"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// runPartitionedWorkload opens a 2-group partitioned plane, pushes a
// closed-loop keyed workload from each group's front-end (deliberately
// including cross-group keys), and returns a flattened per-group ack log.
func runPartitionedWorkload(t *testing.T, workers int) string {
	t.Helper()
	const putsPerGroup = 24
	pp := NewPartitionedPlane(PartitionedConfig{
		Groups:         2,
		ShardsPerGroup: 2,
		Replicas:       3,
		RegionSize:     128 << 10,
		Seed:           11,
		Workers:        workers,
	})
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	logs := make([][]string, pp.Groups())
	acked := make([]int, pp.Groups())
	for g := 0; g < pp.Groups(); g++ {
		g := g
		eng := pp.PE.Partition(g)
		var issue func(i int)
		issue = func(i int) {
			key := fmt.Sprintf("k%d-%02d", g, i)
			val := []byte(strings.Repeat("x", 48))
			pp.Put(g, key, val, func(err error) {
				if err == wal.ErrLogFull {
					eng.Schedule(2*sim.Microsecond, func() { issue(i) })
					return
				}
				if err != nil {
					t.Errorf("put %s: %v", key, err)
				}
				logs[g] = append(logs[g], fmt.Sprintf("g%d %s home=%d @%d", g, key, pp.HomeGroup(key), eng.Now()))
				acked[g]++
				if i+1 < putsPerGroup {
					issue(i + 1)
				}
			})
		}
		eng.Schedule(0, func() { issue(0) })
	}
	deadline := pp.PE.Partition(0).Now()
	for chunk := 0; chunk < 200; chunk++ {
		deadline = deadline.Add(200 * sim.Microsecond)
		pp.PE.Run(deadline)
		all := true
		for g := range acked {
			all = all && acked[g] == putsPerGroup
		}
		if all {
			break
		}
	}
	for g := range acked {
		if acked[g] != putsPerGroup {
			t.Fatalf("workers=%d: group %d acked %d/%d puts", workers, g, acked[g], putsPerGroup)
		}
	}
	if res := check.PartitionSkew(pp.PE); !res.Pass() {
		t.Fatalf("workers=%d: %v", workers, res.Err)
	}
	fwd := pp.ForwardedPuts()
	total := uint64(0)
	for _, n := range fwd {
		total += n
	}
	if total == 0 {
		t.Fatalf("workers=%d: workload exercised no cross-group forwards", workers)
	}
	pp.Close()
	var b strings.Builder
	for g, log := range logs {
		fmt.Fprintf(&b, "== group %d (local=%d fwd=%d) ==\n", g, pp.LocalPuts()[g], fwd[g])
		for _, line := range log {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestPartitionedPlaneDeterministicAcrossWorkers: the full stack — planes,
// chains, WALs, cross-group forwards — acks in byte-identical order and at
// identical virtual times at every worker count.
func TestPartitionedPlaneDeterministicAcrossWorkers(t *testing.T) {
	ref := runPartitionedWorkload(t, 1)
	for _, w := range []int{2, 4, 0} {
		if got := runPartitionedWorkload(t, w); got != ref {
			t.Fatalf("workers=%d diverged from serial reference:\n--- serial ---\n%s--- workers=%d ---\n%s",
				w, ref, w, got)
		}
	}
}

// TestPartitionedPlaneForwardRefusal: a synchronous refusal at the home
// group still acks the issuing group exactly once, wrapped for errors.Is.
func TestPartitionedPlaneForwardRefusal(t *testing.T) {
	pp := NewPartitionedPlane(PartitionedConfig{
		Groups:         2,
		ShardsPerGroup: 1,
		Replicas:       3,
		RegionSize:     128 << 10,
		Seed:           5,
		Workers:        1,
	})
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	// Find a key homed on group 1, then close group 1's plane so its Put
	// refuses synchronously.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if pp.HomeGroup(k) == 1 {
			key = k
			break
		}
	}
	pp.Group(1).Close()
	acks := 0
	var got error
	pp.PE.Partition(0).Schedule(0, func() {
		pp.Put(0, key, []byte("v"), func(err error) {
			acks++
			got = err
		})
	})
	pp.PE.Run(pp.PE.Partition(0).Now().Add(10 * sim.Microsecond))
	if acks != 1 {
		t.Fatalf("forward refusal acked %d times", acks)
	}
	if got == nil || !strings.Contains(got.Error(), "forward refused") {
		t.Fatalf("err = %v, want wrapped ErrForwardFailed", got)
	}
	pp.Close()
}

// TestPartitionedPlaneCRAQReads: the CRAQ flag plumbs through to every
// group's plane — a committed key serves a clean read from any chain
// replica of its home group, and the ancillary surface (spans, commit
// drain, group-key salting) behaves.
func TestPartitionedPlaneCRAQReads(t *testing.T) {
	pp := NewPartitionedPlane(PartitionedConfig{
		Groups:         2,
		ShardsPerGroup: 1,
		Replicas:       3,
		RegionSize:     128 << 10,
		CRAQ:           true,
		WithSpans:      true,
		Seed:           7,
		Workers:        1,
	})
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < pp.Groups(); g++ {
		if pp.Spans(g) == nil {
			t.Fatalf("group %d has no span recorder", g)
		}
	}
	// One key per group, written at its home group.
	keys := make([]string, pp.Groups())
	for i, found := 0, 0; found < len(keys); i++ {
		k := fmt.Sprintf("craq-%d", i)
		if g := pp.HomeGroup(k); keys[g] == "" {
			keys[g] = k
			found++
		}
	}
	acked := 0
	for g, k := range keys {
		g, k := g, k
		pp.PE.Partition(g).Schedule(0, func() {
			pp.Put(g, k, []byte("v-"+k), func(err error) {
				if err != nil {
					t.Errorf("put %s: %v", k, err)
				}
				acked++
			})
		})
	}
	drive := func(cond func() bool) {
		deadline := pp.PE.Partition(0).Now()
		for chunk := 0; chunk < 200 && !cond(); chunk++ {
			deadline = deadline.Add(200 * sim.Microsecond)
			pp.PE.Run(deadline)
		}
		if !cond() {
			t.Fatal("partitioned CRAQ run stalled")
		}
	}
	drive(func() bool { return acked == len(keys) })
	// CommitAll slots are filled on error only; drive past the drain.
	slots := pp.CommitAll()
	drive(func() bool {
		return pp.PE.Partition(0).Now() > sim.Time(0).Add(2*sim.Millisecond)
	})
	for g, s := range slots {
		if *s != nil {
			t.Fatalf("group %d commit: %v", g, *s)
		}
	}
	// Every replica of the home group serves the committed key clean.
	reads := 0
	for g, k := range keys {
		g, k := g, k
		for r := 0; r < 3; r++ {
			r := r
			pp.PE.Partition(g).Schedule(0, func() {
				pp.Group(g).ReadCRAQ(k, r, func(val []byte, clean bool, err error) {
					if err != nil || !clean || string(val) != "v-"+k {
						t.Errorf("read %s@r%d: val=%q clean=%v err=%v", k, r, val, clean, err)
					}
					reads++
				})
			})
		}
	}
	drive(func() bool { return reads == 3*len(keys) })
	for g := range keys {
		if c, d := pp.Group(g).Shard(0).DB().CRAQStats(); c != 3 || d != 0 {
			t.Fatalf("group %d craq stats clean=%d dirty=%d, want 3/0", g, c, d)
		}
	}
	if s := pp.Group(0).String(); s == "" {
		t.Fatal("empty plane description")
	}
	pp.Close()
}
