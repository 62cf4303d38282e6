package oracle

import "testing"

// TestConformanceSeeds runs the full suite at seeds 1-5 with a CI-sized
// sample budget. cmd/hl verify runs the same suite with larger -n.
func TestConformanceSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(name(seed), func(t *testing.T) {
			for _, r := range RunAll(seed, 20000) {
				if r.Err != nil {
					t.Errorf("%s", r)
				} else {
					t.Logf("%s", r)
				}
			}
		})
	}
}

func name(seed int64) string { return "seed" + string(rune('0'+seed)) }

// TestEquivalenceLongerStream gives the dual-system differential run a
// longer op stream than the default suite, at one seed, to reach deeper
// interleavings of durable writes, partial-map CASes, and flushes.
func TestEquivalenceLongerStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	if r := CheckEquivalence(7, 1500); r.Err != nil {
		t.Fatalf("%s", r)
	}
}

// TestReportSummarize pins the pass/fail plumbing the CI step keys off.
func TestReportSummarize(t *testing.T) {
	out, ok := Summarize([]Report{{Name: "a", Detail: "d"}})
	if !ok || out == "" {
		t.Fatalf("clean reports must summarize ok (got ok=%v)", ok)
	}
	bad := failf("b", "d", nil, "boom")
	if _, ok := Summarize([]Report{bad}); ok {
		t.Fatal("failed report must flip the summary to not-ok")
	}
}
