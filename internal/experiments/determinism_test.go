package experiments

import "testing"

// TestDeterminismBothModes: the depcheck determinism harness must report
// bitwise-identical weights for every (workers, policy) cell, with graph
// replay and with fresh per-step emission.
func TestDeterminismBothModes(t *testing.T) {
	for _, noReplay := range []bool{false, true} {
		rows, err := RunDeterminism(Opts{SeqLen: 6, NoReplay: noReplay})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 6 {
			t.Fatalf("noReplay=%v: want 6 rows (3 worker counts x 2 policies), got %d", noReplay, len(rows))
		}
		for _, r := range rows {
			if !r.Identical {
				t.Errorf("noReplay=%v workers=%d policy=%v diverged from the reference", noReplay, r.Workers, r.Policy)
			}
		}
	}
}
