package baseline

import (
	"fmt"
	"slices"

	"bpar/internal/cell"
	"bpar/internal/core"
	"bpar/internal/taskrt"
)

// fusedCell prices one task of the paper's one-task-per-cell shape: one GEMM
// over [X_t, H_{t-1}] for every gate plus element-wise work (two GEMMs, dW and
// d[X_t, H_{t-1}], backward). The framework models price their steps with it.
type fusedCell struct {
	kind             string // task kind of a forward cell; its backward twin appends "-bwd"
	gates            int
	fwdElem, bwdElem float64 // element-wise flops per row and hidden unit
	workingSet       func(batch, inputSize, hiddenSize int) int64
}

var fusedCells = map[core.CellKind]fusedCell{
	core.LSTM: {"lstm", 4, 12, 20, cell.LSTMWorkingSetBytes},
	core.GRU:  {"gru", 3, 10, 18, cell.GRUWorkingSetBytes},
	core.RNN:  {"rnn", 1, 2, 4, cell.RNNWorkingSetBytes},
}

// cellFlops is the cost of one forward (or bwd: backward) cell task of layer
// l over rows sequences.
func cellFlops(cfg core.Config, l, rows int, bwd bool) float64 {
	c := fusedCells[cfg.Cell]
	gemm, elem := 2.0, c.fwdElem
	if bwd {
		gemm, elem = 4.0, c.bwdElem
	}
	b, in, h := float64(rows), cfg.LayerInputSize(l), cfg.HiddenSize
	return gemm*b*float64(in+h)*float64(c.gates*h) + elem*b*float64(h)
}

// dirParamCount counts one direction's parameters at layer l: W and B.
func dirParamCount(cfg core.Config, l int) int {
	g, h := fusedCells[cfg.Cell].gates, cfg.HiddenSize
	return g*h*(cfg.LayerInputSize(l)+h) + g*h
}

// TrainGraph records the paper's barrier-free training graph of one batch of
// cfg (Algorithm 1): per mini-batch forward and backward, then the reduction.
func TrainGraph(cfg core.Config) (*taskrt.Graph, error) {
	return record(cfg, func(g *paperGraph) {
		for _, m := range g.mbs {
			g.forward(m)
			g.backward(m)
		}
		g.reduce()
	})
}

// InferGraph records the paper's forward-only graph of one batch of cfg.
func InferGraph(cfg core.Config) (*taskrt.Graph, error) {
	return record(cfg, func(g *paperGraph) {
		for _, m := range g.mbs {
			g.forward(m)
		}
	})
}

// BarrierTrainGraph records cfg's training graph with framework-style
// per-layer barriers (Section II): each layer runs one direction, the other,
// then the merges, with a barrier node after every phase.
func BarrierTrainGraph(cfg core.Config) (*taskrt.Graph, error) {
	return record(cfg, func(g *paperGraph) {
		phase := func(emit func(m *mbKeys)) {
			for _, m := range g.mbs {
				emit(m)
			}
			g.rec.Barrier()
		}
		L := cfg.Layers
		for l := range L {
			phase(func(m *mbKeys) { g.cells(m, l, 0) })
			phase(func(m *mbKeys) { g.cells(m, l, 1) })
			phase(func(m *mbKeys) { g.merges(m, l) })
		}
		phase(g.heads)
		for l := L - 1; l >= 0; l-- {
			phase(func(m *mbKeys) { g.mergesBwd(m, l) })
			phase(func(m *mbKeys) { g.cellsBwd(m, l, 0) })
			phase(func(m *mbKeys) { g.cellsBwd(m, l, 1) })
		}
		g.reduce()
	})
}

// record validates cfg and returns the graph emit records.
func record(cfg core.Config, emit func(*paperGraph)) (*taskrt.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &paperGraph{cfg: cfg, cell: fusedCells[cfg.Cell], rec: taskrt.NewCapture()}
	for _, h := range cfg.HeadSpecs() {
		g.perFrame = g.perFrame || h.Kind.PerFrame()
		g.classify = g.classify || h.Kind == core.HeadClassify
	}
	n := cfg.MiniBatches
	for i := range n {
		rows := cfg.Batch / n
		if i < cfg.Batch%n {
			rows++
		}
		g.mbs = append(g.mbs, newMBKeys(cfg, i, rows))
	}
	emit(g)
	graph := g.rec.Graph()
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	return graph, nil
}

// paperGraph records the task graph of Algorithms 1–3 onto a Capture. Tasks
// carry cost metadata but no bodies.
type paperGraph struct {
	cfg      core.Config
	cell     fusedCell
	rec      *taskrt.Capture
	mbs      []*mbKeys
	perFrame bool // some head reads every timestep's top-layer merge
	classify bool // some head reads the final merge
}

// key names one piece of a mini-batch's data; no buffer exists behind it.
type key struct{ _ byte }

type deps = []taskrt.Dep

func keys(n int) deps {
	ks := make(deps, n)
	for i := range ks {
		ks[i] = &key{}
	}
	return ks
}

// mbKeys holds one mini-batch's dependency keys. Grids index [layer][timestep],
// after [direction] (0 forward, 1 reverse) for per-direction ones.
type mbKeys struct {
	idx, rows                     int
	x                             deps
	merged, dMerged               []deps
	st, dHMerge, dHChain, dCChain [2][]deps
	grads                         [2]deps // per layer
	dFinalH                       deps    // per direction
	finalMerged, dFinalMerged     taskrt.Dep
	probs                         deps // per output slot
	headGrads                     deps // per head
}

func newMBKeys(cfg core.Config, idx, rows int) *mbKeys {
	L, T := cfg.Layers, cfg.SeqLen
	grid := func() []deps {
		g := make([]deps, L)
		for l := range g {
			g[l] = keys(T)
		}
		return g
	}
	m := &mbKeys{idx: idx, rows: rows, x: keys(T), merged: grid(), dMerged: grid(), dFinalH: keys(2),
		finalMerged: &key{}, dFinalMerged: &key{},
		probs: keys(cfg.HeadSlots(T)), headGrads: keys(len(cfg.HeadSpecs()))}
	for d := range 2 {
		m.st[d], m.dHMerge[d], m.dHChain[d], m.dCChain[d] = grid(), grid(), grid(), grid()
		m.grads[d] = keys(L)
	}
	return m
}

// finalStates are what the final merge reads: every top-layer forward state,
// then the reverse direction's last-processed one.
func (m *mbKeys) finalStates() deps {
	top := len(m.st[0]) - 1
	return append(slices.Clone(m.st[0][top]), m.st[1][top][0])
}

var dirName = [2]string{"fwd", "rev"}

// submit records one task. Capture derives its predecessors in the order of
// in, inout and out.
func (g *paperGraph) submit(label, kind string, flops float64, ws int64, in, inout, out deps) {
	g.rec.Submit(&taskrt.Task{Label: label, Kind: kind, In: in, InOut: inout, Out: out, Flops: flops, WorkingSet: ws})
}

// mergePerStep reports whether layer l merges every timestep, which the top
// layer does only for per-frame heads.
func (g *paperGraph) mergePerStep(l int) bool { return l < g.cfg.Layers-1 || g.perFrame }

// forward records one mini-batch's forward graph (Algorithms 2 and 3): per
// layer the reverse chain, the forward chain and the merges (Equation 11).
func (g *paperGraph) forward(m *mbKeys) {
	for l := range g.cfg.Layers {
		g.cells(m, l, 1)
		g.cells(m, l, 0)
		g.merges(m, l)
	}
	g.heads(m)
}

// cells records layer l's chain in direction d (t = 0 → T-1 forward, T-1 → 0
// reverse); each cell reads its layer input (the batch, or the merge below)
// and the previous state.
func (g *paperGraph) cells(m *mbKeys, l, d int) {
	T := g.cfg.SeqLen
	flops := cellFlops(g.cfg, l, m.rows, false)
	ws := g.cell.workingSet(m.rows, g.cfg.LayerInputSize(l), g.cfg.HiddenSize)
	for u := range T {
		t, prev := u, u-1
		if d == 1 {
			t, prev = T-1-u, T-u
		}
		in := deps{m.x[t]}
		if l > 0 {
			in = deps{m.merged[l-1][t]}
		}
		if u > 0 {
			in = append(in, m.st[d][l][prev])
		}
		g.submit(fmt.Sprintf("%s L%d t%d mb%d", dirName[d], l, t, m.idx), g.cell.kind, flops, ws,
			in, nil, deps{m.st[d][l][t]})
	}
}

// merges records layer l's per-timestep merges.
func (g *paperGraph) merges(m *mbKeys, l int) {
	if !g.mergePerStep(l) {
		return
	}
	flops, ws := g.cfg.Merge.Cost(m.rows, g.cfg.HiddenSize)
	for t := range g.cfg.SeqLen {
		g.submit(fmt.Sprintf("merge L%d t%d mb%d", l, t, m.idx), "merge", flops, ws,
			deps{m.st[0][l][t], m.st[1][l][t]}, nil, deps{m.merged[l][t]})
	}
}

// heads records the final merge, if a head classifies, then one task per
// output slot, reading the final merge or, per frame, the top-layer merge.
func (g *paperGraph) heads(m *mbKeys) {
	cfg := g.cfg
	D, L, T := cfg.MergeDim(), cfg.Layers, cfg.SeqLen
	if g.classify {
		flops, ws := cfg.Merge.Cost(m.rows, cfg.HiddenSize)
		g.submit(fmt.Sprintf("merge-final mb%d", m.idx), "merge", flops, ws, m.finalStates(), nil, deps{m.finalMerged})
	}
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		flops := 2 * float64(m.rows) * float64(D) * float64(spec.Classes)
		ws := int64(8 * (m.rows*D + m.rows*spec.Classes + spec.Classes*D))
		for t := range n {
			label, in := fmt.Sprintf("head%d mb%d", h, m.idx), m.finalMerged
			if spec.Kind.PerFrame() {
				label, in = fmt.Sprintf("head%d t%d mb%d", h, t, m.idx), m.merged[L-1][t]
			}
			g.submit(label, "head", flops, ws, deps{in}, nil, deps{m.probs[lo+t]})
		}
	}
}

// backward records one mini-batch's backward graph, top layer first.
func (g *paperGraph) backward(m *mbKeys) {
	for l := g.cfg.Layers - 1; l >= 0; l-- {
		g.mergesBwd(m, l)
		g.cellsBwd(m, l, 0)
		g.cellsBwd(m, l, 1)
	}
}

// mergesBwd records layer l's merge gradients, after the heads' and the final
// merge's on the top layer. Heads accumulate (inout) into the merge gradient
// they feed, so heads sharing a merge serialize in declaration order.
func (g *paperGraph) mergesBwd(m *mbKeys, l int) {
	cfg := g.cfg
	D, L, T := cfg.MergeDim(), cfg.Layers, cfg.SeqLen
	flops, ws := cfg.Merge.Cost(m.rows, cfg.HiddenSize)
	if l == L-1 {
		for h, spec := range cfg.HeadSpecs() {
			lo, _ := cfg.HeadSlotRange(h, T)
			hFlops := 4 * float64(m.rows) * float64(D) * float64(spec.Classes)
			hWS := int64(8 * (2*m.rows*D + m.rows*spec.Classes + 2*spec.Classes*D))
			if !spec.Kind.PerFrame() {
				g.submit(fmt.Sprintf("head%d-bwd mb%d", h, m.idx), "head-bwd", hFlops, hWS,
					deps{m.probs[lo], m.finalMerged}, deps{m.headGrads[h], m.dFinalMerged}, nil)
				continue
			}
			for t := T - 1; t >= 0; t-- {
				g.submit(fmt.Sprintf("head%d-bwd t%d mb%d", h, t, m.idx), "head-bwd", hFlops, hWS,
					deps{m.probs[lo+t], m.merged[L-1][t]}, deps{m.headGrads[h], m.dMerged[L-1][t]}, nil)
			}
		}
		if g.classify {
			g.submit(fmt.Sprintf("merge-final-bwd mb%d", m.idx), "merge-bwd", flops, ws,
				append(deps{m.dFinalMerged}, m.finalStates()...), nil, m.dFinalH)
		}
	}
	if !g.mergePerStep(l) {
		return
	}
	for t := range T {
		in := deps{m.dMerged[l][t]}
		if cfg.Merge == core.MergeMul {
			in = append(in, m.st[0][l][t], m.st[1][l][t])
		}
		g.submit(fmt.Sprintf("merge-bwd L%d t%d mb%d", l, t, m.idx), "merge-bwd", flops, ws,
			in, nil, deps{m.dHMerge[0][l][t], m.dHMerge[1][l][t]})
	}
}

// cellsBwd records layer l's backward chain in direction d, the forward chain
// reversed. Each task is a whole backward cell: it accumulates (inout) the
// layer's weight gradients and the merge gradient below itself.
func (g *paperGraph) cellsBwd(m *mbKeys, l, d int) {
	T, rev := g.cfg.SeqLen, d == 1
	flops := cellFlops(g.cfg, l, m.rows, true)
	ws := g.cell.workingSet(m.rows, g.cfg.LayerInputSize(l), g.cfg.HiddenSize)
	lstm := g.cfg.Cell == core.LSTM
	classify := g.classify && l == g.cfg.Layers-1
	for u := range T {
		t, prev, hasPrev := T-1-u, T-2-u, u < T-1
		if rev {
			t, prev = u, u+1
		}
		in := deps{m.st[d][l][t], m.dHMerge[d][l][t], m.dHChain[d][l][t]}
		if classify && (!rev || t == 0) {
			in = append(in, m.dFinalH[d])
		}
		if lstm {
			in = append(in, m.dCChain[d][l][t])
		}
		var out deps
		if hasPrev {
			in = append(in, m.st[d][l][prev])
			out = append(out, m.dHChain[d][l][prev])
			if lstm {
				out = append(out, m.dCChain[d][l][prev])
			}
		}
		inout := deps{m.grads[d][l]}
		if l > 0 {
			inout = append(inout, m.dMerged[l-1][t])
		}
		g.submit(fmt.Sprintf("%s-bwd L%d t%d mb%d", dirName[d], l, t, m.idx), g.cell.kind+"-bwd", flops, ws, in, inout, out)
	}
}

// reduce records one task per parameter pair (per layer both directions, then
// each head) folding every mini-batch's gradients into mini-batch 0's.
func (g *paperGraph) reduce() {
	if len(g.mbs) == 1 {
		return
	}
	w0, others := g.mbs[0], g.mbs[1:]
	task := func(name string, count int, grad func(*mbKeys) taskrt.Dep) {
		in := make(deps, len(others))
		for j, m := range others {
			in[j] = grad(m)
		}
		g.submit("reduce "+name, "reduce", 2*float64(count)*float64(len(others)), int64(count)*8*int64(len(g.mbs)),
			in, deps{grad(w0)}, nil)
	}
	for l := range g.cfg.Layers {
		for d := range 2 {
			task(fmt.Sprintf("L%d dir%d", l, d), dirParamCount(g.cfg, l), func(m *mbKeys) taskrt.Dep { return m.grads[d][l] })
		}
	}
	D := g.cfg.MergeDim()
	for h, spec := range g.cfg.HeadSpecs() {
		task(fmt.Sprintf("head%d", h), spec.Classes*D+spec.Classes, func(m *mbKeys) taskrt.Dep { return m.headGrads[h] })
	}
}
