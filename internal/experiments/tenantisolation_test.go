package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTenantIsolation: the headline QoS scenario passes all its checks at
// the default duration — victim flat, aggressor recovered on funded edge
// capacity, spend capped, counterfactual degraded. Runs through the matrix
// entry point the chaos gate uses, at width 1.
func TestTenantIsolation(t *testing.T) {
	vs := seedMatrix(1, 1, tenantIsolationAt)
	if len(vs) != 1 {
		t.Fatalf("matrix width %d, want 1", len(vs))
	}
	v := vs[0]
	for _, c := range v.Checks {
		if c.Err != nil {
			t.Errorf("%s: %v", c.Name, c.Err)
		} else {
			t.Logf("%s: %s", c.Name, c.Detail)
		}
	}
	if len(v.QoSOn.QoSEvents) == 0 {
		t.Fatal("no QoS events recorded")
	}
	// Observe-only guarantee: the victim's ledger never moves.
	for _, st := range v.QoSOn.QoSTenants {
		if st.Name == "victim" && (st.Steps != 0 || st.Spent != 0) {
			t.Fatalf("victim ledger moved: %+v", st)
		}
	}
}

// isoSummary flattens everything a determinism gate should compare: every
// verdict, tenant row, ledger, decision event, and final placement.
func isoSummary(v TenantIsolationVerdict) string {
	return fmt.Sprintf("verdicts=%+v tenants=%+v ledgers=%+v events=%+v placements=%v lat=%v p999=%v",
		v.QoSOn.Verdicts, v.QoSOn.Tenants, v.QoSOn.QoSTenants, v.QoSOn.QoSEvents,
		v.QoSOn.Placements, v.QoSOn.Lat, v.QoSOn.P999)
}

// TestTenantIsolationDeterministicAcrossWorkers: the full scenario —
// controller decisions, migrations, ledgers, and the merged metrics dump —
// is byte-identical at 1 and 4 engine workers.
func TestTenantIsolationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	run := func(workers int) (string, []byte) {
		v := RunTenantIsolation(TenantIsolationParams{Seed: 7, Workers: workers})
		if !v.Pass() {
			for _, c := range v.Checks {
				if c.Err != nil {
					t.Errorf("workers=%d %s: %v", workers, c.Name, c.Err)
				}
			}
			t.Fatalf("workers=%d: scenario failed", workers)
		}
		dump, err := v.Metrics.ExportJSON()
		if err != nil {
			t.Fatalf("workers=%d: export: %v", workers, err)
		}
		return isoSummary(v), dump
	}
	refSum, refDump := run(1)
	sum, dump := run(4)
	if sum != refSum {
		t.Fatalf("workers 1 vs 4 diverged:\n  w1: %s\n  w4: %s", refSum, sum)
	}
	if !bytes.Equal(dump, refDump) {
		t.Fatal("metrics dump not byte-identical across worker counts")
	}
}
