package experiments

import "testing"

func TestAdmissionBurstIsolatesVictim(t *testing.T) {
	for i, v := range seedMatrix(1, 2, admissionBurstAt) {
		seed := int64(1 + i)
		t.Logf("seed %d: %v", seed, v.Spec)
		for _, c := range v.Checks {
			t.Logf("  %v", c)
			if !c.Pass() {
				t.Errorf("seed %d: check %s failed: %v", seed, c.Name, c.Err)
			}
		}
		if !v.Pass() {
			t.Errorf("seed %d: verdict failed", seed)
		}
		if v.Metrics == nil {
			t.Fatalf("seed %d: burst run carried no metrics registry", seed)
		}
	}
}

func TestAdmissionBurstDeterministicAcrossWorkers(t *testing.T) {
	a := RunAdmissionBurst(AdmissionBurstParams{Seed: 3, Workers: 1})
	b := RunAdmissionBurst(AdmissionBurstParams{Seed: 3, Workers: 2})
	if a.Burst.Verdicts != b.Burst.Verdicts {
		t.Fatalf("burst verdicts diverge across workers:\n  1: %+v\n  2: %+v",
			a.Burst.Verdicts, b.Burst.Verdicts)
	}
	if a.Burst.P999 != b.Burst.P999 || a.Uncontrolled.P999 != b.Uncontrolled.P999 {
		t.Fatalf("latency tails diverge across workers")
	}
}
