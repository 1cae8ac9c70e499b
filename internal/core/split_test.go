package core

import (
	"testing"

	"bpar/internal/taskrt"
)

// trainNMode is trainN with an explicit gate-computation mode.
func trainNMode(t *testing.T, cfg Config, fused bool, mkExec func() taskrt.Executor, n int) (*Model, float64) {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := mkExec()
	if rt, ok := exec.(*taskrt.Runtime); ok {
		defer rt.Shutdown()
	}
	e := NewEngine(m, exec)
	e.FusedGates = fused
	var loss float64
	for i := 0; i < n; i++ {
		b := makeBatch(cfg, uint64(100+i))
		loss, err = e.TrainStep(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
	}
	return m, loss
}

// TestSplitMatchesFusedWeights: the split-gate decomposition reorders the
// gate summation (bias + x-projection first, recurrent part accumulated
// later) and batches dWx, so it cannot be bitwise identical to the fused
// path — but after several full training steps the weights must agree to
// rounding error. Covers all cell kinds, both architectures, In != H, and
// data parallelism.
func TestSplitMatchesFusedWeights(t *testing.T) {
	const tol = 1e-9
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lstm-m2o", smallCfg(LSTM, ManyToOne, 1)},
		{"gru-m2o", smallCfg(GRU, ManyToOne, 1)},
		{"rnn-m2o", smallCfg(RNN, ManyToOne, 1)},
		{"lstm-m2m-mbs2", smallCfg(LSTM, ManyToMany, 2)},
		{"gru-m2m", smallCfg(GRU, ManyToMany, 1)},
		{"rnn-m2m", smallCfg(RNN, ManyToMany, 1)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fusedM, fusedLoss := trainNMode(t, tc.cfg, true, inlineExec, 4)
			splitM, splitLoss := trainNMode(t, tc.cfg, false, inlineExec, 4)
			if d := fusedM.WeightsMaxAbsDiff(splitM); d > tol {
				t.Fatalf("fused vs split weights differ by %g > %g", d, tol)
			}
			if d := fusedLoss - splitLoss; d > 1e-9 || d < -1e-9 {
				t.Fatalf("fused vs split loss differ: %g vs %g", fusedLoss, splitLoss)
			}
		})
	}
}

// TestFusedParallelMatchesSequentialBitwise keeps the legacy fused path's
// determinism contract covered now that split is the engine default (the
// main bitwise suite exercises split).
func TestFusedParallelMatchesSequentialBitwise(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	seqM, seqLoss := trainNMode(t, cfg, true, inlineExec, 4)
	parM, parLoss := trainNMode(t, cfg, true, parallelExec(4, taskrt.BreadthFirst), 4)
	if !seqM.WeightsEqual(parM) {
		t.Fatalf("fused weights diverged: max |diff| = %g", seqM.WeightsMaxAbsDiff(parM))
	}
	if seqLoss != parLoss {
		t.Fatalf("fused loss diverged: %g vs %g", seqLoss, parLoss)
	}
}

// recordSplitTrain captures the split-mode training graph of cfg.
func recordSplitTrain(t *testing.T, cfg Config) *taskrt.Graph {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := taskrt.NewCapture()
	e := NewPhantomEngine(m, rec)
	e.FusedGates = false // phantom defaults to fused; opt into the split graph
	e.EmitTrainGraph(cfg.SeqLen)
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSplitTrainGraphComposition: the split-mode graph adds exactly the
// projection tiles, one dw task per (layer, direction, mini-batch) and the
// dx tiles on top of the fused graph's task kinds, and stays acyclic.
func TestSplitTrainGraphComposition(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1) // 3 layers, seq 5
	g := recordSplitTrain(t, cfg)
	L, T := cfg.Layers, cfg.SeqLen
	tiles := (T + projTileT - 1) / projTileT
	if got, want := g.CountKind("proj"), 2*L*tiles; got != want {
		t.Errorf("proj tasks %d, want %d", got, want)
	}
	if got, want := g.CountKind("dw"), 2*L; got != want {
		t.Errorf("dw tasks %d, want %d", got, want)
	}
	// Hoisted input-gradient tiles exist for every layer except the bottom
	// one, whose input gradient has no consumer.
	if got, want := g.CountKind("dx"), 2*(L-1)*tiles; got != want {
		t.Errorf("dx tasks %d, want %d", got, want)
	}
	if got, want := g.CountKind("lstm"), 2*L*T; got != want {
		t.Errorf("forward chain cells %d, want %d", got, want)
	}
	if got, want := g.CountKind("lstm-bwd"), 2*L*T; got != want {
		t.Errorf("backward chain cells %d, want %d", got, want)
	}
}

// TestSplitTrainGraphValidates across cell kinds, architectures, longer
// sequences (multiple projection tiles) and data parallelism.
func TestSplitTrainGraphValidates(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, arch := range []Arch{ManyToOne, ManyToMany} {
			cfg := smallCfg(cell, arch, 2)
			cfg.SeqLen = 2*projTileT + 3 // exercises full and ragged tiles
			recordSplitTrain(t, cfg)
		}
	}
}
