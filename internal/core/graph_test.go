package core

import (
	"testing"
	"testing/quick"

	"bpar/internal/taskrt"
)

// recordTrain captures the training graph of cfg.
func recordTrain(t *testing.T, cfg Config) *taskrt.Graph {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := taskrt.NewCapture()
	NewPhantomEngine(m, rec).EmitTrainGraph(cfg.SeqLen)
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func recordInfer(t *testing.T, cfg Config) *taskrt.Graph {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := taskrt.NewCapture()
	NewPhantomEngine(m, rec).EmitInferGraph(cfg.SeqLen)
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInferGraphMatchesCellTaskCount: the forward-only graph contains
// exactly the cells + merges + heads that Figures 1-2 describe.
func TestInferGraphMatchesCellTaskCount(t *testing.T) {
	for _, arch := range []Arch{ManyToOne, ManyToMany} {
		cfg := smallCfg(LSTM, arch, 1)
		g := recordInfer(t, cfg)
		if len(g.Nodes) != cfg.CellTaskCount() {
			t.Errorf("%v: got %d nodes, want CellTaskCount %d", arch, len(g.Nodes), cfg.CellTaskCount())
		}
	}
}

// TestTrainGraphComposition: kind counts of a training graph follow the
// model structure exactly.
func TestTrainGraphComposition(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1) // 3 layers, seq 5
	g := recordTrain(t, cfg)
	L, T := cfg.Layers, cfg.SeqLen
	if got, want := g.CountKind("lstm"), 2*L*T; got != want {
		t.Errorf("forward cells %d, want %d", got, want)
	}
	if got, want := g.CountKind("lstm-bwd"), 2*L*T; got != want {
		t.Errorf("backward cells %d, want %d", got, want)
	}
	if got, want := g.CountKind("merge"), (L-1)*T+1; got != want {
		t.Errorf("merges %d, want %d", got, want)
	}
	if got, want := g.CountKind("merge-bwd"), (L-1)*T+1; got != want {
		t.Errorf("merge-bwds %d, want %d", got, want)
	}
	if got := g.CountKind("head"); got != 1 {
		t.Errorf("heads %d, want 1", got)
	}
	if got := g.CountKind("head-bwd"); got != 1 {
		t.Errorf("head-bwds %d, want 1", got)
	}
	if got := g.CountKind("reduce"); got != 0 {
		t.Errorf("mbs:1 should emit no reduce tasks, got %d", got)
	}
}

// TestTrainGraphReduceTasks: mbs:N emits one reduce per layer/direction
// plus one for the head.
func TestTrainGraphReduceTasks(t *testing.T) {
	cfg := smallCfg(GRU, ManyToOne, 3)
	g := recordTrain(t, cfg)
	want := 2*cfg.Layers + 1
	if got := g.CountKind("reduce"); got != want {
		t.Errorf("reduce tasks %d, want %d", got, want)
	}
}

// TestEmissionIsDeterministic: two independent emissions of the same
// configuration produce structurally identical graphs.
func TestEmissionIsDeterministic(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToMany, 2)
	a := recordTrain(t, cfg)
	b := recordTrain(t, cfg)
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		na, nb := a.Nodes[i], b.Nodes[i]
		if na.Label != nb.Label || na.Kind != nb.Kind || na.Flops != nb.Flops {
			t.Fatalf("node %d differs: %+v vs %+v", i, na, nb)
		}
		if len(na.Preds) != len(nb.Preds) {
			t.Fatalf("node %d pred counts differ", i)
		}
		for j := range na.Preds {
			if na.Preds[j] != nb.Preds[j] {
				t.Fatalf("node %d pred %d differs", i, j)
			}
		}
	}
}

// TestCriticalPathScalesWithDepthAndLength: the dependency structure forces
// the critical path to grow linearly in both SeqLen and Layers.
func TestCriticalPathScalesWithDepthAndLength(t *testing.T) {
	base := smallCfg(LSTM, ManyToOne, 1)
	cp := func(c Config) float64 { return recordTrain(t, c).CriticalPathFlops() }

	c2 := base
	c2.SeqLen = base.SeqLen * 2
	ratioT := cp(c2) / cp(base)
	if ratioT < 1.7 || ratioT > 2.3 {
		t.Errorf("doubling SeqLen scaled CP by %.2f, want ~2", ratioT)
	}

	c3 := base
	c3.Layers = base.Layers * 2
	ratioL := cp(c3) / cp(base)
	if ratioL < 1.6 || ratioL > 2.6 {
		t.Errorf("doubling Layers scaled CP by %.2f, want ~2", ratioL)
	}
}

// TestBarrierGraphHasBarriers: the barrier emission inserts barrier nodes,
// and they dominate the graph's ordering (every non-barrier node after the
// first barrier transitively depends on one).
func TestBarrierGraphHasBarriers(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := taskrt.NewCapture()
	NewPhantomEngine(m, rec).EmitTrainGraphBarrier(cfg.SeqLen)
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	nBarriers := g.CountKind("barrier")
	// 3 barriers per layer forward + 1 after head + 3 per layer backward.
	want := 3*cfg.Layers + 1 + 3*cfg.Layers
	if nBarriers != want {
		t.Errorf("barriers %d, want %d", nBarriers, want)
	}
	// The barrier graph must contain the same computational nodes.
	free := recordTrain(t, cfg)
	if len(g.Nodes)-nBarriers != len(free.Nodes) {
		t.Errorf("barrier graph has %d compute nodes, free graph %d", len(g.Nodes)-nBarriers, len(free.Nodes))
	}
}

// TestGraphWidthGrowsWithMiniBatches: data parallelism multiplies the
// achievable concurrency.
func TestGraphWidthGrowsWithMiniBatches(t *testing.T) {
	cfg1 := smallCfg(LSTM, ManyToOne, 1)
	cfg3 := smallCfg(LSTM, ManyToOne, 3)
	w1 := recordTrain(t, cfg1).MaxWidth()
	w3 := recordTrain(t, cfg3).MaxWidth()
	if w3 < 2*w1 {
		t.Errorf("mbs:3 width %d should be at least twice mbs:1 width %d", w3, w1)
	}
}

// TestQuickRandomConfigGraphs: over random valid configurations, every
// emitted training graph validates, has the formula-predicted forward node
// count, and has positive critical path.
func TestQuickRandomConfigGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		pick := func(mod, min int) int {
			seed = seed*6364136223846793005 + 1442695040888963407
			return int((seed>>33)%uint64(mod)) + min
		}
		cfg := Config{
			Cell:        CellKind(pick(3, 0)),
			Arch:        Arch(pick(2, 0)),
			Merge:       MergeOp(pick(4, 0)),
			InputSize:   pick(5, 1),
			HiddenSize:  pick(6, 1),
			Layers:      pick(4, 1),
			SeqLen:      pick(6, 1),
			Batch:       pick(8, 1),
			Classes:     pick(4, 2),
			MiniBatches: 1,
			Seed:        seed,
		}
		cfg.MiniBatches = pick(cfg.Batch, 1)
		if err := cfg.Validate(); err != nil {
			return false
		}
		m, err := NewModel(cfg)
		if err != nil {
			return false
		}
		rec := taskrt.NewCapture()
		NewPhantomEngine(m, rec).EmitTrainGraph(cfg.SeqLen)
		g := rec.Graph()
		if g.Validate() != nil {
			return false
		}
		if g.CriticalPathFlops() <= 0 || g.TotalFlops() < g.CriticalPathFlops() {
			return false
		}
		// The forward sub-structure appears per mini-batch.
		wantCells := 2 * cfg.Layers * cfg.SeqLen * cfg.MiniBatches
		kind := "lstm"
		switch cfg.Cell {
		case GRU:
			kind = "gru"
		case RNN:
			kind = "rnn"
		}
		return g.CountKind(kind) == wantCells && g.CountKind(kind+"-bwd") == wantCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
