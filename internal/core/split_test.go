package core

import (
	"testing"

	"bpar/internal/prof"
	"bpar/internal/taskrt"
)

// trainTemplateGraph trains one step of cfg on a real engine and returns the
// graph of its captured training template.
func trainTemplateGraph(t *testing.T, cfg Config) *taskrt.Graph {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, inlineExec())
	if _, err := e.TrainStep(makeBatch(cfg, 3), 0.05); err != nil {
		t.Fatal(err)
	}
	tpl := e.tpls[tplKey{kind: stepTrain, T: cfg.SeqLen}]
	g := prof.DumpTemplates([]*taskrt.Template{tpl}, nil).Templates[0].Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSplitTrainGraphComposition: a training template holds exactly the
// chain cells of the paper's graph plus the projection tiles, one dw task per
// (layer, direction, mini-batch) and the dx tiles, and stays acyclic.
func TestSplitTrainGraphComposition(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1) // 3 layers, seq 5
	g := trainTemplateGraph(t, cfg)
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
			trainTemplateGraph(t, cfg)
		}
	}
}
