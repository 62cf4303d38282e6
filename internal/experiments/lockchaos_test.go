package experiments

import (
	"reflect"
	"testing"
)

// Every seeded lock-contention scenario must pass all invariants: mutual
// exclusion through the NIC stall, full completion, and a free lock word.
func TestLockContentionMatrixPasses(t *testing.T) {
	for _, v := range seedMatrix(1, 3, lockContentionAt) {
		if !v.Pass() {
			for _, c := range v.Checks {
				t.Errorf("%v: %v", v.Spec, c)
			}
		}
		if v.MaxHeld != 1 {
			t.Errorf("%v: occupancy %d", v.Spec, v.MaxHeld)
		}
		if v.Retries == 0 {
			t.Errorf("%v: contention produced no retries", v.Spec)
		}
	}
}

// The scenario is pure virtual time: the same seed must reproduce the
// verdict exactly, including the fault timeline.
func TestLockContentionDeterministic(t *testing.T) {
	a := RunLockContention(LockContentionParams{Seed: 7})
	b := RunLockContention(LockContentionParams{Seed: 7})
	a.Metrics, b.Metrics = nil, nil // registries hold function-valued gauges
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeat runs differ:\n%+v\n%+v", a, b)
	}
}
