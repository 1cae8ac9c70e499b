package core

import (
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// headGrads accumulates one output head's gradients.
type headGrads struct {
	DW *tensor.Matrix
	DB []float64
}

func (g *headGrads) zero() {
	g.DW.Zero()
	for i := range g.DB {
		g.DB[i] = 0
	}
}

// stepBinding is the per-step data a task graph reads at run time: the
// current batch's labels and lengths (its input-matrix views are bound as the
// float64 forward buffers' x, see fwdBufs). Emitter task closures must never
// capture these values structurally — they read them through the workspace,
// swapped by bindStep before each emission or replay, which is what lets a
// frozen taskrt.Template be replayed for any batch of the same shape. The
// learning rate and loss scale stay host-side: applySGD consumes them after
// Wait, outside the task graph.
type stepBinding struct {
	targets     []int   // many-to-one labels; nil for unlabeled inference
	stepTargets [][]int // many-to-many labels, [timestep][sequence]
	lens        []int   // per-row real lengths; nil for full-length batches
	genTargets  [][]int // stepTargets shifted one frame left (generate heads)
}

// workspace holds the unrolled activations, caches and gradient buffers for
// one mini-batch, plus the dependency keys that name them in task
// annotations.
//
// In phantom mode no numeric buffers are allocated: only dependency keys
// exist, and emitted tasks carry metadata but no bodies. Phantom mode lets
// the discrete-event simulator record task graphs for configurations far too
// large to execute on the host (e.g. hidden 1024, batch 256, 48 cores).
type workspace struct {
	phantom bool
	split   bool // split-gate decomposition: projection + chain tasks
	rows    int  // sequences in this mini-batch
	T       int  // sequence length
	cfg     Config

	// bind is the current step's batch view; see stepBinding.
	bind stepBinding

	// Dependency keys, always present. Indexing: [layer][timestep].
	// Chain-buffer conventions:
	//   kDHChainFwd[l][t] — grad w.r.t. H of forward cell (l,t), written by
	//     the backward task of cell (l,t+1); zero (never written) at t=T-1.
	//   kDHChainRev[l][t] — grad w.r.t. H of reverse cell (l,t), written by
	//     the backward task of cell (l,t-1); zero at t=0.
	kX            []taskrt.Dep
	kX32          []taskrt.Dep // float32 input mirror, written by conv tasks
	kFwdSt        [][]taskrt.Dep
	kRevSt        [][]taskrt.Dep
	kMerged       [][]taskrt.Dep
	kFinalMerged  taskrt.Dep
	kProbs        []taskrt.Dep // one per output slot (see Config.HeadSlots)
	kDMerged      [][]taskrt.Dep
	kDFinalMerged taskrt.Dep
	kDFinalHFwd   taskrt.Dep // final-merge grad w.r.t. the forward direction
	kDFinalHRev   taskrt.Dep // final-merge grad w.r.t. the reverse direction
	kDHMergeFwd   [][]taskrt.Dep
	kDHMergeRev   [][]taskrt.Dep
	kDHChainFwd   [][]taskrt.Dep
	kDCChainFwd   [][]taskrt.Dep
	kDHChainRev   [][]taskrt.Dep
	kDCChainRev   [][]taskrt.Dep
	kGradsFwd     []taskrt.Dep
	kGradsRev     []taskrt.Dep
	kHeadGrads    []taskrt.Dep // one per head

	// Split-gate decomposition keys, always present so phantom graphs can be
	// emitted in either mode. kPre*[l][t] names the gate-preload panel
	// Pre_t = X_t*Wx^T + B written by the projection task; kDGates*[l][t]
	// names the pre-activation gate-gradient panel left behind by the split
	// backward chain for the batched dWx task.
	kPreFwd    [][]taskrt.Dep
	kPreRev    [][]taskrt.Dep
	kDGatesFwd [][]taskrt.Dep
	kDGatesRev [][]taskrt.Dep

	// Real buffers; nil in phantom mode. The forward half lives in the
	// embedded float64 fwdBufs, which the backward pass reads.
	fwdBufs[float64]
	losses                 []float64 // one per output slot
	dMerged                [][]*tensor.Matrix
	dFinalMerged           *tensor.Matrix
	dFinalHFwd, dFinalHRev *tensor.Matrix // final-merge backward outputs
	dHMergeFwd, dHMergeRev [][]*tensor.Matrix
	dHChainFwd, dCChainFwd [][]*tensor.Matrix
	dHChainRev, dCChainRev [][]*tensor.Matrix
	dXScratchFwd           []*tensor.Matrix // per layer
	dXScratchRev           []*tensor.Matrix
	dHSumFwd, dHSumRev     []*tensor.Matrix // per layer dH accumulation scratch
	dHSinkFwd, dCSinkFwd   []*tensor.Matrix // discard targets at chain boundaries
	dHSinkRev, dCSinkRev   []*tensor.Matrix
	gradsFwd, gradsRev     []*dirGrads
	headGrads              []*headGrads     // one per head
	dLogits                []*tensor.Matrix // per-head backward scratch (serialized by kHeadGrads[h])

	// genTargets/ignoreRow back the generate heads' shifted label binding:
	// bindStep points genTargets[t] at stepTargets[t+1] and the final frame
	// at ignoreRow (all tensor.IgnoreLabel).
	genTargets [][]int
	ignoreRow  []int

	// Pooled split-gate gradient panels, allocated only when split &&
	// !phantom. Indexing: [layer][timestep], each [rows x G*H].
	dGatesFwd, dGatesRev [][]*tensor.Matrix

	// f32 holds the float32 forward buffers; nil unless the owning engine
	// infers at float32. They share the float64 buffers' dependency keys (the
	// graph topology is identical), except the converted inputs which get
	// their own kX32 keys.
	f32 *fwdBufs[float32]

	// Per-(layer, direction) transposition scratch of the batched dw tasks:
	// stackP* holds the [G*H x T·rows] gate-gradient stack, stackB* the
	// [max(in,H) x T·rows] input/state stack. Private to one task each (the
	// dw tasks of a layer's two directions serialize on different grad keys),
	// so they stay unregistered with the dependency sanitizer.
	stackPFwd, stackPRev []*tensor.Matrix
	stackBFwd, stackBRev []*tensor.Matrix
}

// fwdBufs holds the forward-pass buffers of one workspace at element type E:
// layer inputs, cell states, merge outputs, head buffers, and (split path)
// the pooled gate-preload panels. Every workspace has the float64
// instantiation — training's backward pass reads it; a float32-inference
// engine adds the float32 one. Backward buffers exist at float64 only.
type fwdBufs[E tensor.Elt] struct {
	// x is the layer-0 input, one matrix per timestep. At float64 it is the
	// current step's batch views, pointed here by bindStep; at float32 it is
	// the workspace-owned panels the conv tasks fill from those views.
	x             []*tensor.Mat[E]
	fwdSt, revSt  [][]*cellSt[E]
	merged        [][]*tensor.Mat[E]
	finalMerged   *tensor.Mat[E]
	logits, probs []*tensor.Mat[E] // one per output slot
	zeroH, zeroC  *tensor.Mat[E]

	// Variable-length final-merge support: with a bound lens the forward
	// direction's sequence-final state is row i of fwdSt[L-1][lens[i]-1], not
	// fwdSt[L-1][T-1]. gatherH assembles it (via gatherIdx = lens[i]-1 over
	// the lastHFwd views); written by the final-merge forward task and reread
	// by the final-merge backward task, which the head tasks already order,
	// so it stays unregistered with the dependency sanitizer.
	lastHFwd  []*tensor.Mat[E] // views of fwdSt[L-1][t].H()
	gatherH   *tensor.Mat[E]
	gatherIdx []int

	// preFwd/preRev pool the split-gate preload panels, [layer][timestep],
	// each [rows x G*H]; nil when fused.
	preFwd, preRev [][]*tensor.Mat[E]
}

// token is a unique comparable dependency key for phantom buffers.
type token struct{ _ byte }

func newToken() taskrt.Dep { return &token{} }

// hasMergePerTimestep reports whether layer l has a merge cell at every
// timestep (true for all layers except the top layer of a model with no
// per-frame head, which has only the single final merge).
func (c Config) hasMergePerTimestep(l int) bool {
	return l < c.Layers-1 || c.anyPerFrame()
}

// newWorkspace builds a workspace for one mini-batch of `rows` sequences of
// length T. When phantom is true, only dependency keys are created. When
// split is true, the workspace additionally pools the gate-preload and
// gate-gradient panels of the split-gate decomposition. When f32 is true, the
// float32 forward buffers are allocated as well.
func newWorkspace(m *Model, rows, T int, phantom, split, f32 bool) *workspace {
	cfg := m.Cfg
	w := &workspace{phantom: phantom, split: split, rows: rows, T: T, cfg: cfg}
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()

	grid := func() [][]taskrt.Dep {
		g := make([][]taskrt.Dep, L)
		for l := range g {
			g[l] = make([]taskrt.Dep, T)
			for t := range g[l] {
				g[l][t] = newToken()
			}
		}
		return g
	}

	w.kX = make([]taskrt.Dep, T)
	w.kX32 = make([]taskrt.Dep, T)
	for t := range w.kX {
		w.kX[t] = newToken()
		w.kX32[t] = newToken()
	}
	w.kFwdSt, w.kRevSt = grid(), grid()
	w.kPreFwd, w.kPreRev = grid(), grid()
	w.kDGatesFwd, w.kDGatesRev = grid(), grid()
	w.kMerged, w.kDMerged = grid(), grid()
	w.kDHMergeFwd, w.kDHMergeRev = grid(), grid()
	w.kDHChainFwd, w.kDCChainFwd = grid(), grid()
	w.kDHChainRev, w.kDCChainRev = grid(), grid()
	w.kFinalMerged, w.kDFinalMerged = newToken(), newToken()
	w.kDFinalHFwd, w.kDFinalHRev = newToken(), newToken()
	specs := cfg.HeadSpecs()
	nSlots := cfg.HeadSlots(T)
	w.kHeadGrads = make([]taskrt.Dep, len(specs))
	for i := range w.kHeadGrads {
		w.kHeadGrads[i] = newToken()
	}
	w.kProbs = make([]taskrt.Dep, nSlots)
	for i := range w.kProbs {
		w.kProbs[i] = newToken()
	}
	w.kGradsFwd = make([]taskrt.Dep, L)
	w.kGradsRev = make([]taskrt.Dep, L)
	for l := 0; l < L; l++ {
		w.kGradsFwd[l] = newToken()
		w.kGradsRev[l] = newToken()
	}
	w.losses = make([]float64, nSlots)
	if phantom {
		return w
	}

	// Real buffers.
	w.fwdBufs = newFwdBufs[float64](m, rows, T, split)
	w.dMerged = make([][]*tensor.Matrix, L)
	w.dHMergeFwd = make([][]*tensor.Matrix, L)
	w.dHMergeRev = make([][]*tensor.Matrix, L)
	w.dHChainFwd = make([][]*tensor.Matrix, L)
	w.dCChainFwd = make([][]*tensor.Matrix, L)
	w.dHChainRev = make([][]*tensor.Matrix, L)
	w.dCChainRev = make([][]*tensor.Matrix, L)
	for l := 0; l < L; l++ {
		if cfg.hasMergePerTimestep(l) {
			w.dMerged[l] = matRow[float64](T, rows, D)
		}
		w.dHMergeFwd[l] = matRow[float64](T, rows, H)
		w.dHMergeRev[l] = matRow[float64](T, rows, H)
		w.dHChainFwd[l] = matRow[float64](T, rows, H)
		w.dCChainFwd[l] = matRow[float64](T, rows, H)
		w.dHChainRev[l] = matRow[float64](T, rows, H)
		w.dCChainRev[l] = matRow[float64](T, rows, H)
	}
	if cfg.anyClassify() {
		w.dFinalMerged = tensor.New(rows, D)
		w.dFinalHFwd = tensor.New(rows, H)
		w.dFinalHRev = tensor.New(rows, H)
	}

	w.dXScratchFwd = make([]*tensor.Matrix, L)
	w.dXScratchRev = make([]*tensor.Matrix, L)
	w.dHSumFwd = matRow[float64](L, rows, H)
	w.dHSumRev = matRow[float64](L, rows, H)
	w.dHSinkFwd = matRow[float64](L, rows, H)
	w.dCSinkFwd = matRow[float64](L, rows, H)
	w.dHSinkRev = matRow[float64](L, rows, H)
	w.dCSinkRev = matRow[float64](L, rows, H)
	for l := 0; l < L; l++ {
		in := cfg.LayerInputSize(l)
		w.dXScratchFwd[l] = tensor.New(rows, in)
		w.dXScratchRev[l] = tensor.New(rows, in)
	}

	w.gradsFwd = make([]*dirGrads, L)
	w.gradsRev = make([]*dirGrads, L)
	for l := 0; l < L; l++ {
		w.gradsFwd[l] = m.fwd[l].newGrads()
		w.gradsRev[l] = m.rev[l].newGrads()
	}
	w.headGrads = make([]*headGrads, len(specs))
	w.dLogits = make([]*tensor.Matrix, len(specs))
	for h, spec := range specs {
		w.headGrads[h] = &headGrads{DW: tensor.New(spec.Classes, D), DB: make([]float64, spec.Classes)}
		w.dLogits[h] = tensor.New(rows, spec.Classes)
	}
	for _, spec := range specs {
		if spec.Kind == HeadGenerate {
			w.genTargets = make([][]int, T)
			w.ignoreRow = make([]int, rows)
			for i := range w.ignoreRow {
				w.ignoreRow[i] = tensor.IgnoreLabel
			}
			break
		}
	}

	if split {
		w.dGatesFwd = make([][]*tensor.Matrix, L)
		w.dGatesRev = make([][]*tensor.Matrix, L)
		w.stackPFwd = make([]*tensor.Matrix, L)
		w.stackPRev = make([]*tensor.Matrix, L)
		w.stackBFwd = make([]*tensor.Matrix, L)
		w.stackBRev = make([]*tensor.Matrix, L)
		K := T * rows
		for l := 0; l < L; l++ {
			inF, gwF := m.fwd[l].dims()
			inR, gwR := m.rev[l].dims()
			w.dGatesFwd[l] = matRow[float64](T, rows, gwF)
			w.dGatesRev[l] = matRow[float64](T, rows, gwR)
			w.stackPFwd[l] = tensor.New(gwF, K)
			w.stackPRev[l] = tensor.New(gwR, K)
			w.stackBFwd[l] = tensor.New(max(inF, H), K)
			w.stackBRev[l] = tensor.New(max(inR, H), K)
		}
	}
	if f32 {
		s := newFwdBufs[float32](m, rows, T, split)
		s.x = matRow[float32](T, rows, cfg.InputSize)
		w.f32 = &s
	}
	return w
}

// newFwdBufs allocates one workspace's forward buffers at element type E. x
// is left to the caller (see fwdBufs.x).
func newFwdBufs[E tensor.Elt](m *Model, rows, T int, split bool) fwdBufs[E] {
	cfg := m.Cfg
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()
	var b fwdBufs[E]
	b.fwdSt = make([][]*cellSt[E], L)
	b.revSt = make([][]*cellSt[E], L)
	b.merged = make([][]*tensor.Mat[E], L)
	for l := 0; l < L; l++ {
		b.fwdSt[l] = make([]*cellSt[E], T)
		b.revSt[l] = make([]*cellSt[E], T)
		for t := 0; t < T; t++ {
			b.fwdSt[l][t] = newCellSt[E](m.fwd[l], rows)
			b.revSt[l][t] = newCellSt[E](m.rev[l], rows)
		}
		if cfg.hasMergePerTimestep(l) {
			b.merged[l] = matRow[E](T, rows, D)
		}
	}
	if cfg.anyClassify() {
		b.finalMerged = tensor.NewOf[E](rows, D)
		b.gatherH = tensor.NewOf[E](rows, H)
		b.gatherIdx = make([]int, rows)
		b.lastHFwd = make([]*tensor.Mat[E], T)
		for t := 0; t < T; t++ {
			b.lastHFwd[t] = b.fwdSt[L-1][t].H()
		}
	}
	nSlots := cfg.HeadSlots(T)
	b.logits = make([]*tensor.Mat[E], nSlots)
	b.probs = make([]*tensor.Mat[E], nSlots)
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		for s := lo; s < lo+n; s++ {
			b.logits[s] = tensor.NewOf[E](rows, spec.Classes)
			b.probs[s] = tensor.NewOf[E](rows, spec.Classes)
		}
	}
	b.zeroH = tensor.NewOf[E](rows, H)
	b.zeroC = tensor.NewOf[E](rows, H)
	if split {
		b.preFwd = make([][]*tensor.Mat[E], L)
		b.preRev = make([][]*tensor.Mat[E], L)
		for l := 0; l < L; l++ {
			_, gwF := m.fwd[l].dims()
			_, gwR := m.rev[l].dims()
			b.preFwd[l] = matRow[E](T, rows, gwF)
			b.preRev[l] = matRow[E](T, rows, gwR)
		}
	}
	return b
}

func matRow[E tensor.Elt](n, rows, cols int) []*tensor.Mat[E] {
	out := make([]*tensor.Mat[E], n)
	for i := range out {
		out[i] = tensor.NewOf[E](rows, cols)
	}
	return out
}

// bindStep points the workspace's per-step binding at mb's views. It must
// run before emitting or replaying any non-phantom graph over this workspace.
func (w *workspace) bindStep(mb *Batch) {
	w.x = mb.X
	w.bind.targets = mb.Targets
	w.bind.stepTargets = mb.StepTargets
	w.bind.lens = mb.Lens
	w.bind.genTargets = nil
	if w.genTargets != nil && mb.StepTargets != nil {
		for t := 0; t < w.T-1; t++ {
			w.genTargets[t] = mb.StepTargets[t+1]
		}
		w.genTargets[w.T-1] = w.ignoreRow
		w.bind.genTargets = w.genTargets
	}
}

// input returns the matrix feeding layer l at timestep t: x for layer 0, the
// merge output of the layer below otherwise. Task bodies call it at run time
// so replayed closures see the current step's binding.
func (b *fwdBufs[E]) input(l, t int) *tensor.Mat[E] {
	if l == 0 {
		return b.x[t]
	}
	return b.merged[l-1][t]
}

// stepTargetsAt returns the bound many-to-many labels of timestep t, nil
// when the current batch is unlabeled.
func (w *workspace) stepTargetsAt(t int) []int {
	if w.bind.stepTargets == nil {
		return nil
	}
	return w.bind.stepTargets[t]
}

// headTargetsAt returns the labels a per-frame head of the given kind trains
// on at timestep t: the bound step targets for tagging, the shifted stream
// for generation; nil when the current batch is unlabeled.
func (w *workspace) headTargetsAt(kind HeadKind, t int) []int {
	if kind == HeadGenerate {
		if w.bind.genTargets == nil {
			return nil
		}
		return w.bind.genTargets[t]
	}
	return w.stepTargetsAt(t)
}

// maskRevState zeroes the rows of reverse state (l,t) for which timestep t
// is padding under the step's lens binding (no-op with nil lens), so the next
// reverse cell's hPrev/cPrev restart each short row's chain from the zero
// boundary state.
func (b *fwdBufs[E]) maskRevState(l, t int, lens []int) {
	tensor.MaskRowsZero(b.revSt[l][t].H(), lens, t)
	tensor.MaskRowsZero(b.revSt[l][t].C(), lens, t)
}

// gatherLastHFwd assembles the forward direction's sequence-final hidden
// state under the step's lens binding into gatherH and returns it; with nil
// lens it returns the T-1 state directly (the full-length fast path).
func (b *fwdBufs[E]) gatherLastHFwd(lens []int) *tensor.Mat[E] {
	if lens == nil {
		return b.lastHFwd[len(b.lastHFwd)-1]
	}
	for i, n := range lens {
		b.gatherIdx[i] = n - 1
	}
	tensor.GatherRows(b.gatherH, b.lastHFwd, b.gatherIdx)
	return b.gatherH
}

// resetForStep zeroes the buffers that accumulate across tasks within one
// training step: dMerged and dFinalMerged (summed into by cell-backward and
// head-backward tasks) and the per-mini-batch gradients. Chain and merge-grad
// buffers at graph boundaries stay zero by construction.
func (w *workspace) resetForStep() {
	if w.phantom {
		return
	}
	for l := range w.dMerged {
		for _, m := range w.dMerged[l] {
			if m != nil {
				m.Zero()
			}
		}
	}
	if w.dFinalMerged != nil {
		w.dFinalMerged.Zero()
	}
	for l := range w.gradsFwd {
		w.gradsFwd[l].zero()
		w.gradsRev[l].zero()
	}
	for _, g := range w.headGrads {
		g.zero()
	}
	for i := range w.losses {
		w.losses[i] = 0
	}
}

// workingSetBytes estimates the resident bytes of all live activation and
// gradient buffers of this workspace — the quantity the paper's memory
// study reports (75.36 MB without per-layer sync vs 28.26 MB with, for an
// 8-layer BLSTM at mbs:6). The split-gate preload/gradient panels are
// deliberately excluded so the fused-vs-split memory comparison (and the
// phantom analytic formula) measure the same activation footprint.
func (w *workspace) workingSetBytes() int64 {
	if w.phantom {
		return w.phantomWorkingSetBytes()
	}
	total := w.fwdBufs.workingSetBytes()
	if w.f32 != nil {
		total += w.f32.workingSetBytes()
	}
	for l := range w.dMerged {
		for _, grid := range [][]*tensor.Matrix{
			w.dMerged[l], w.dHMergeFwd[l], w.dHMergeRev[l],
			w.dHChainFwd[l], w.dCChainFwd[l], w.dHChainRev[l], w.dCChainRev[l],
		} {
			total += matsBytes(grid...)
		}
	}
	return total + matsBytes(w.dFinalMerged)
}

// workingSetBytes is the forward half of workspace.workingSetBytes at one
// element type: cell states, merge outputs and head buffers. Layer-0 inputs
// are left out at both dtypes (the caller's batch at float64, its converted
// copy at float32), like the preload panels.
func (b *fwdBufs[E]) workingSetBytes() int64 {
	var total int64
	for l := range b.fwdSt {
		for t := range b.fwdSt[l] {
			total += b.fwdSt[l][t].workingSetBytes()
			total += b.revSt[l][t].workingSetBytes()
		}
		total += matsBytes(b.merged[l]...)
	}
	return total + matsBytes(b.finalMerged) + matsBytes(b.logits...) + matsBytes(b.probs...)
}

// matsBytes sums the storage of the non-nil matrices in ms.
func matsBytes[E tensor.Elt](ms ...*tensor.Mat[E]) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(len(m.Data))
		}
	}
	return n * int64(tensor.DTypeOf[E]().Size())
}

// phantomWorkingSetBytes computes the same estimate analytically.
func (w *workspace) phantomWorkingSetBytes() int64 {
	cfg := w.cfg
	var total int64
	gates := int64(cfg.gatesPerCell())
	H := int64(cfg.HiddenSize)
	D := int64(cfg.MergeDim())
	rows := int64(w.rows)
	T := int64(w.T)
	for l := 0; l < cfg.Layers; l++ {
		in := int64(cfg.LayerInputSize(l))
		var perState int64
		if cfg.Cell == LSTM {
			perState = rows*(in+H) + rows*gates*H + 3*rows*H
		} else {
			perState = 2*rows*(in+H) + rows*2*H + 2*rows*H
		}
		total += 2 * T * perState * 8
		if cfg.hasMergePerTimestep(l) {
			total += 2 * T * rows * D * 8 // merged + dMerged
		}
		total += 6 * T * rows * H * 8 // merge-grad and chain buffers
	}
	if cfg.anyClassify() {
		total += 2 * rows * D * 8
	}
	for _, spec := range cfg.HeadSpecs() {
		slots := int64(1)
		if spec.Kind.PerFrame() {
			slots = T
		}
		total += 2 * slots * rows * int64(spec.Classes) * 8
	}
	return total
}
