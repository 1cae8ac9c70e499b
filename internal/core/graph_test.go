package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/taskrt"
)

// These tests pin and check the paper's one-task-per-cell graph, which the
// simulator and every experiment consume. The engine emitted it until the
// configuration-only builder in internal/baseline took it over; the tests
// kept their names, assertions and constants through the move.

// recordTrain records the training graph of cfg.
func recordTrain(t *testing.T, cfg core.Config) *taskrt.Graph {
	t.Helper()
	g, err := baseline.TrainGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func recordInfer(t *testing.T, cfg core.Config) *taskrt.Graph {
	t.Helper()
	g, err := baseline.InferGraph(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// graphPin hashes a recorded graph node by node in submission order: label,
// kind, cost metadata, predecessors with their data flags, and successors.
func graphPin(g *taskrt.Graph) uint64 {
	var buf bytes.Buffer
	for _, n := range g.Nodes {
		fmt.Fprintf(&buf, "%s|%s|%g|%d|%v|%v|%v\n", n.Label, n.Kind, n.Flops, n.WorkingSet, n.Preds, n.DataPreds, n.Succs)
	}
	return fnv64a(buf.Bytes())
}

// TestBarrierGraphPin pins the per-layer-barrier training graph that the
// simulator's barrier ablation consumes: first labels, kinds and predecessor
// lists in submission order, then the whole graph including data flags and
// successor lists.
func TestBarrierGraphPin(t *testing.T) {
	g, err := baseline.BarrierTrainGraph(core.MultiHeadCfg(core.LSTM, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, n := range g.Nodes {
		fmt.Fprintf(&buf, "%s|%s|%v\n", n.Label, n.Kind, n.Preds)
	}
	if got, want := fnv64a(buf.Bytes()), uint64(0xd417d1bc990bc083); got != want {
		t.Fatalf("barrier graph drifted: 0x%x want 0x%x", got, want)
	}
	if got, want := graphPin(g), uint64(0xa97f15a4006563d2); got != want {
		t.Fatalf("barrier graph flags or successors drifted: 0x%x want 0x%x", got, want)
	}
}

// TestPhantomGraphPins pins the barrier-free training and inference graphs
// the simulator and every experiment consume, for each cell kind. The
// constants were captured from the graph recorder that kept its own copy of
// the RAW/WAR/WAW rules, and held through the engine's graph-only
// ("phantom") mode that the builder replaced; the builder must reproduce node
// order, predecessor order, data flags and successors.
func TestPhantomGraphPins(t *testing.T) {
	want := map[string]uint64{
		"LSTM-train": 0x5f1dbff081804d7e, "LSTM-infer": 0x28702c25ccc47d17,
		"GRU-train": 0x362aa67a80629050, "GRU-infer": 0x2b59455fdc5e7273,
		"RNN-train": 0x56286808336cf4d0, "RNN-infer": 0xa333b90ab008f43b,
	}
	for _, cell := range []core.CellKind{core.LSTM, core.GRU, core.RNN} {
		for _, train := range []bool{true, false} {
			name := fmt.Sprintf("%v-infer", cell)
			if train {
				name = fmt.Sprintf("%v-train", cell)
			}
			t.Run(name, func(t *testing.T) {
				cfg := core.MultiHeadCfg(cell, 2)
				var g *taskrt.Graph
				if train {
					g = recordTrain(t, cfg)
				} else {
					g = recordInfer(t, cfg)
				}
				if got := graphPin(g); got != want[name] {
					t.Errorf("phantom graph drifted: 0x%x want 0x%x", got, want[name])
				}
			})
		}
	}
}

// TestInferGraphMatchesCellTaskCount: the forward-only graph contains
// exactly the cells + merges + heads that Figures 1-2 describe. At 3 layers
// and 5 timesteps: 30 cells; many-to-one adds 10 merges, the final merge and
// one head (42), many-to-many 15 merges and 5 per-frame heads (50).
func TestInferGraphMatchesCellTaskCount(t *testing.T) {
	want := map[core.Arch]int{core.ManyToOne: 42, core.ManyToMany: 50}
	for _, arch := range []core.Arch{core.ManyToOne, core.ManyToMany} {
		g := recordInfer(t, core.SmallCfg(core.LSTM, arch, 1))
		if len(g.Nodes) != want[arch] {
			t.Errorf("%v: got %d nodes, want %d", arch, len(g.Nodes), want[arch])
		}
	}
}

// TestTrainGraphComposition: kind counts of a training graph follow the
// model structure exactly.
func TestTrainGraphComposition(t *testing.T) {
	cfg := core.SmallCfg(core.LSTM, core.ManyToOne, 1) // 3 layers, seq 5
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
	cfg := core.SmallCfg(core.GRU, core.ManyToOne, 3)
	g := recordTrain(t, cfg)
	want := 2*cfg.Layers + 1
	if got := g.CountKind("reduce"); got != want {
		t.Errorf("reduce tasks %d, want %d", got, want)
	}
}

// TestEmissionIsDeterministic: two independent emissions of the same
// configuration produce structurally identical graphs.
func TestEmissionIsDeterministic(t *testing.T) {
	cfg := core.SmallCfg(core.LSTM, core.ManyToMany, 2)
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
	base := core.SmallCfg(core.LSTM, core.ManyToOne, 1)
	cp := func(c core.Config) float64 { return recordTrain(t, c).CriticalPathFlops() }

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
	cfg := core.SmallCfg(core.LSTM, core.ManyToOne, 2)
	g, err := baseline.BarrierTrainGraph(cfg)
	if err != nil {
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
	cfg1 := core.SmallCfg(core.LSTM, core.ManyToOne, 1)
	cfg3 := core.SmallCfg(core.LSTM, core.ManyToOne, 3)
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
		cfg := core.Config{
			Cell:        core.CellKind(pick(3, 0)),
			Arch:        core.Arch(pick(2, 0)),
			Merge:       core.MergeOp(pick(4, 0)),
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
		g, err := baseline.TrainGraph(cfg)
		if err != nil {
			return false
		}
		if g.CriticalPathFlops() <= 0 || g.TotalFlops() < g.CriticalPathFlops() {
			return false
		}
		// The forward sub-structure appears per mini-batch.
		wantCells := 2 * cfg.Layers * cfg.SeqLen * cfg.MiniBatches
		kind := "lstm"
		switch cfg.Cell {
		case core.GRU:
			kind = "gru"
		case core.RNN:
			kind = "rnn"
		}
		return g.CountKind(kind) == wantCells && g.CountKind(kind+"-bwd") == wantCells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
