package experiments

import (
	"fmt"
	"testing"

	"hyperloop/internal/sim"
)

// renderColdVerdict flattens a cold-restore verdict for byte comparison.
func renderColdVerdict(v ColdRestoreVerdict) string {
	out := fmt.Sprintf("%v failovers=%d detect=%v rto=%v rpo-cold=%d acked-lost=%d attempts=%d committed=%d errored=%d\n",
		v.Spec, v.Failovers, v.DetectIn, v.RTO, v.RPOCold, v.AckedLost, v.RestoreAttempts, v.Committed, v.Errored)
	out += fmt.Sprintf("  restore: %dB snap + %d segs (%d recs) to seq %d in %v\n",
		v.Restore.SnapshotBytes, v.Restore.Segments, v.Restore.Records, v.Restore.RestoredSeq, v.Restore.Elapsed)
	out += fmt.Sprintf("  stream: %d segs %d snaps %d recs %d retries\n",
		v.Stream.Segments, v.Stream.Snapshots, v.Stream.Records, v.Stream.Retries)
	for _, e := range v.Timeline {
		out += "  " + e.String() + "\n"
	}
	for _, r := range v.Checks {
		out += "  " + r.String() + "\n"
	}
	return out
}

func TestColdRestoreDeterministic(t *testing.T) {
	p := ColdRestoreParams{Seed: 2}
	a := renderColdVerdict(RunColdRestoreScenario(p))
	b := renderColdVerdict(RunColdRestoreScenario(p))
	if a != b {
		t.Fatalf("verdicts diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestColdRestoreMatrixPasses is the acceptance gate: several seeds — which
// between them hit the uploader-kill and restorer-kill chaos arms — all with
// zero acked writes lost and every invariant green.
func TestColdRestoreMatrixPasses(t *testing.T) {
	verdicts := seedMatrix(1, 6, coldRestoreAt)
	sawUploaderKill, sawRestorerKill := false, false
	for _, v := range verdicts {
		if !v.Pass() {
			t.Errorf("scenario failed:\n%s", renderColdVerdict(v))
			continue
		}
		if v.AckedLost != 0 {
			t.Errorf("seed %d: %d acked writes lost", v.Spec.Seed, v.AckedLost)
		}
		if v.RTO <= 0 {
			t.Errorf("seed %d: no RTO measured", v.Spec.Seed)
		}
		if v.Spec.KillUploader {
			sawUploaderKill = true
		}
		if v.Spec.KillRestorer {
			sawRestorerKill = true
			if v.RestoreAttempts < 2 {
				t.Errorf("seed %d: restorer killed but only %d attempt(s)", v.Spec.Seed, v.RestoreAttempts)
			}
		}
		if testing.Verbose() {
			t.Logf("\n%s", renderColdVerdict(v))
		}
	}
	if !sawUploaderKill || !sawRestorerKill {
		t.Fatalf("chaos arms not covered: uploader-kill=%v restorer-kill=%v", sawUploaderKill, sawRestorerKill)
	}
}

func TestColdRestoreOrderStable(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	a := seedMatrix(11, 3, coldRestoreAt)
	SetParallelism(1)
	b := seedMatrix(11, 3, coldRestoreAt)
	for i := range a {
		ra, rb := renderColdVerdict(a[i]), renderColdVerdict(b[i])
		if ra != rb {
			t.Fatalf("verdict %d differs between parallel and serial runs:\n--- parallel ---\n%s--- serial ---\n%s", i, ra, rb)
		}
	}
}

// TestRestoreSweepShape pins the stream-shape tradeoff the RTO/RPO table
// reports: every cell restores cleanly, and within a snapshot interval the
// segment size only changes how the covered range is chunked, never whether
// acked writes survive.
func TestRestoreSweepShape(t *testing.T) {
	cells := RestoreSweep(4,
		[]int{1 << 10, 8 << 10},
		[]sim.Duration{10 * sim.Millisecond, 40 * sim.Millisecond})
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for _, c := range cells {
		if !c.Verdict.Pass() {
			t.Errorf("cell seg=%d snap=%v failed:\n%s", c.SegmentBytes, c.SnapshotEvery, renderColdVerdict(c.Verdict))
		}
		if c.Verdict.AckedLost != 0 {
			t.Errorf("cell seg=%d snap=%v lost %d acked writes", c.SegmentBytes, c.SnapshotEvery, c.Verdict.AckedLost)
		}
	}
}
