package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"hyperloop/internal/faults"
)

// scalingOps keeps the scaling tests quick while leaving the curve shape
// intact.
const scalingOps = 200

func TestShardScalingCurve(t *testing.T) {
	res := ShardScaling(42, scalingOps, false)
	if len(res) != len(ShardScalingCounts) {
		t.Fatalf("got %d points, want %d", len(res), len(ShardScalingCounts))
	}
	for i, r := range res {
		t.Logf("shards=%2d acked=%d tput=%.1f kops p99=%v maxShardP99=%v",
			r.Shards, r.Acked, r.TputKops, r.Lat.P99, r.MaxShardP99)
		if r.Shards != ShardScalingCounts[i] {
			t.Fatalf("point %d: shards %d, want %d", i, r.Shards, ShardScalingCounts[i])
		}
		if r.Acked < scalingOps*r.Shards {
			t.Fatalf("shards=%d acked %d < target %d", r.Shards, r.Acked, scalingOps*r.Shards)
		}
	}
	// Aggregate throughput must grow monotonically from 1 to 8 shards
	// (the 16-shard point may flatten: 16 shards x 3 replicas on 16 hosts
	// saturates the pool).
	for i := 1; i < len(res) && res[i].Shards <= 8; i++ {
		if res[i].TputKops <= res[i-1].TputKops {
			t.Errorf("throughput not monotonic: %d shards %.1f kops <= %d shards %.1f kops",
				res[i].Shards, res[i].TputKops, res[i-1].Shards, res[i-1].TputKops)
		}
	}
	// Per-shard p99 stays roughly flat while aggregate throughput grows —
	// the whole point of scaling out groups instead of deepening one chain.
	var base, worst8 = res[0].MaxShardP99, res[0].MaxShardP99
	for _, r := range res {
		if r.Shards <= 8 && r.MaxShardP99 > worst8 {
			worst8 = r.MaxShardP99
		}
	}
	if worst8 > 3*base {
		t.Errorf("per-shard p99 not flat: worst %v vs 1-shard %v", worst8, base)
	}
}

func TestShardScalingDeterministic(t *testing.T) {
	counts := []int{1, 4}
	run := func(workers int) []ShardScalingResult {
		out, err := RunParallel(workers, len(counts), func(i int) (ShardScalingResult, error) {
			return RunShardScaling(ShardScalingParams{
				Shards: counts[i], Seed: 7, OpsPerShard: scalingOps,
			}), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial, pooled := run(1), run(4)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("scaling results differ across parallelism:\nserial: %+v\npooled: %+v", serial, pooled)
	}
}

// migrationFingerprint flattens everything observable about a verdict so
// bit-level divergence across runs or worker counts shows up as a plain
// string mismatch.
func migrationFingerprint(v MigrationVerdict) string {
	s := fmt.Sprintf("seed=%d spec=%v acked=%d errored=%d migrated=%v migErr=%v stale=%d\n",
		v.Params.Seed, v.Spec, v.Acked, v.Errored, v.Migrated, v.MigErr, v.StaleSupp)
	for _, e := range v.Timeline {
		s += fmt.Sprintf("tl %d %s\n", e.At, e.What)
	}
	for _, c := range v.Checks {
		s += fmt.Sprintf("ck %s %v\n", c.Name, c.Err)
	}
	return s
}

func TestMigrationChaosInvariants(t *testing.T) {
	verdicts := seedMatrix(1, 6, migrationAt)
	aborted, completed := 0, 0
	for _, v := range verdicts {
		if v.Migrated {
			completed++
		} else {
			aborted++
		}
		t.Logf("seed=%d %v migrated=%v acked=%d errored=%d",
			v.Params.Seed, v.Spec, v.Migrated, v.Acked, v.Errored)
		for _, c := range v.Checks {
			if !c.Pass() {
				t.Errorf("seed %d: check %s failed: %v", v.Params.Seed, c.Name, c.Err)
			}
		}
		// A mid-copy re-tier or dest kill must abort back to the source; a
		// source kill must not stop the client-driven copy from completing
		// the cutover.
		switch {
		case v.Spec.Retier:
			if v.Migrated {
				t.Errorf("seed %d: migration completed despite all-edge re-tier", v.Params.Seed)
			}
		case v.Spec.KillDest:
			if v.Migrated {
				t.Errorf("seed %d: migration completed despite dest kill mid-bulk", v.Params.Seed)
			}
		default:
			if !v.Migrated {
				t.Errorf("seed %d: source kill aborted the migration: %v", v.Params.Seed, v.MigErr)
			}
		}
	}
	if aborted == 0 || completed == 0 {
		t.Fatalf("matrix did not exercise both paths: %d aborted, %d completed", aborted, completed)
	}
}

// TestMigrationRetierAborts pins the operator-fault path: the first planned
// retier scenario must abort at the fence with every invariant intact and
// the shard still serving from the source.
func TestMigrationRetierAborts(t *testing.T) {
	seed := int64(-1)
	for s := int64(1); s <= 64; s++ {
		if faults.PlanMigration(s, msReplicas, msBulkWindow).Retier {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no retier scenario planned in seeds 1..64")
	}
	v := RunMigrationScenario(MigrationParams{Seed: seed})
	t.Logf("seed=%d %v migrated=%v migErr=%v", seed, v.Spec, v.Migrated, v.MigErr)
	if v.Migrated {
		t.Fatal("migration completed despite all-edge re-tier")
	}
	if !v.Pass() {
		for _, c := range v.Checks {
			if !c.Pass() {
				t.Errorf("check %s failed: %v", c.Name, c.Err)
			}
		}
	}
}

func TestMigrationMatrixDeterministic(t *testing.T) {
	run := func(workers int) []string {
		out, err := RunParallel(workers, 4, func(i int) (MigrationVerdict, error) {
			return RunMigrationScenario(MigrationParams{Seed: 1 + int64(i)}), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fps := make([]string, len(out))
		for i, v := range out {
			fps[i] = migrationFingerprint(v)
		}
		return fps
	}
	serial, pooled := run(1), run(4)
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Fatalf("verdict %d diverges across worker counts:\nserial:\n%s\npooled:\n%s",
				i, serial[i], pooled[i])
		}
	}
}

// Seed 2 plans a mid-copy re-tier, and the migrate table must say so with the
// re-tier delay, not label the row a source kill with the source-kill delay.
func TestMigrateRowNamesRetier(t *testing.T) {
	spec := faults.PlanMigration(2, msReplicas, msBulkWindow)
	if !spec.Retier {
		t.Fatalf("seed 2 no longer plans a re-tier: %v", spec)
	}
	row := MigrationVerdict{Params: MigrationParams{Seed: 2}, Spec: spec}.row()
	if row[1] != "retier-dest" || row[3] != fmt.Sprint(spec.RetierAfter) {
		t.Fatalf("seed-2 row = %q, want kill=retier-dest fault+=%v", row, spec.RetierAfter)
	}
}
