package core

import (
	"fmt"
	"slices"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

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
	// maxLen is the first timestep forward task bodies skip: the longest
	// real row's length on forward-only steps, T on training steps.
	maxLen int
}

// workspace holds the unrolled activations, caches and gradient buffers for
// one mini-batch, plus the dependency keys that name them in task
// annotations. Everything that exists once per direction lives in dir; the
// two directions meet only in the merge buffers held here (Equation 11).
type workspace struct {
	rows int // sequences in this mini-batch
	T    int // sequence length
	cfg  Config

	// bind is the current step's batch view; see stepBinding.
	bind stepBinding

	dir [2]dirWS

	// keyGrids lists every [layer][timestep] key grid of this workspace, the
	// per-direction ones included; see keyGrid.
	keyGrids []keyGrid

	// Dependency keys, always present. Grids index [layer][timestep].
	kX            []taskrt.Dep
	kX32          []taskrt.Dep // float32 input mirror, written by conv tasks
	kMerged       [][]taskrt.Dep
	kFinalMerged  taskrt.Dep
	kProbs        []taskrt.Dep // one per output slot (see Config.HeadSlots)
	kDMerged      [][]taskrt.Dep
	kDFinalMerged taskrt.Dep
	kHeadGrads    []taskrt.Dep // one per head

	// Buffers: the forward half is fwdBufs or f32; the rest here and in dir
	// is the training half (see resetForStep).
	fwdBufs[float64]
	losses       []float64 // one per output slot
	dMerged      [][]*tensor.Matrix
	dFinalMerged *tensor.Matrix
	headGrads    []wb             // one per head; W/B hold dW/dB
	dLogits      []*tensor.Matrix // per-head backward scratch (serialized by kHeadGrads[h])

	// grads is the gradient catalogue: one entry per Model.params entry, in
	// that order, aliasing dir[d].grads[l] and headGrads[h]. It holds keys
	// only until the training half exists.
	grads []gradRef

	// genTargets/ignoreRow back the generate heads' shifted label binding:
	// bindStep points genTargets[t] at stepTargets[t+1] and the final frame
	// at ignoreRow (all tensor.IgnoreLabel).
	genTargets [][]int
	ignoreRow  []int

	// f32 holds the float32 forward buffers; nil unless the owning engine
	// infers at float32. They share the float64 buffers' dependency keys (the
	// graph topology is identical), except the converted inputs which get
	// their own kX32 keys.
	f32 *fwdBufs[float32]
}

// dirWS is one direction's share of a workspace: its dependency keys and, as
// sibling fields under the `foo ↔ kFoo` convention bpar-vet resolves, the
// backward buffers they name. Grids index [layer][timestep].
type dirWS struct {
	// Dependency keys, always present.
	// Chain-buffer convention: kDHChain[l][t] names the grad w.r.t. H of cell
	// (l,t), written by the backward task of the cell processed after it —
	// (l,t+1) forward, (l,t-1) reverse — and zero (never written) at the
	// chain's last-processed cell, t=T-1 forward, t=0 reverse.
	kSt      [][]taskrt.Dep
	kPre     [][]taskrt.Dep // gate preload Pre_t = X_t*Wx^T + B, written by the projection task
	kDGates  [][]taskrt.Dep // pre-activation gate gradients the backward chain leaves for the dw and dx tasks
	kDHMerge [][]taskrt.Dep
	kDHChain [][]taskrt.Dep
	kDCChain [][]taskrt.Dep
	kGrads   []taskrt.Dep // per layer
	kDFinalH taskrt.Dep   // final-merge grad w.r.t. this direction

	// Backward buffers; nil until the first training step.
	dHMerge, dHChain, dCChain [][]*tensor.Matrix
	dGates                    [][]*tensor.Matrix // each [rows x G*H]
	dFinalH                   *tensor.Matrix     // final-merge backward output
	grads                     []*dirGrads        // per layer

	// Per-layer scratch private to one task body at a time, so unregistered
	// with the dependency sanitizer: dH accumulation, discard targets at chain
	// boundaries, and the batched dw task's transposition stacks — stackP the
	// [G*H x T·rows] gate-gradient stack, stackB the [max(in,H) x T·rows]
	// input/state stack (the dw tasks of a layer's two directions serialize on
	// different grad keys).
	dHSum          []*tensor.Matrix
	dHSink, dCSink []*tensor.Matrix
	stackP, stackB []*tensor.Matrix
}

// gradRef is one entry of a workspace's gradient catalogue: the dependency
// key that serializes accumulation into the pair, and the pair itself.
type gradRef struct {
	key taskrt.Dep
	wb
}

// keyGrid describes one [layer][timestep] family of dependency keys: its
// depcheck name, where the keys live, and — for backward grids — where the
// float64 buffers they name live and how wide those are at layer l (0: the
// layer has none). Forward grids leave bufs nil: their buffers exist per
// element type in fwdBufs. newWorkspace, allocTraining, keyNames and
// workingSetBytes all walk this one list.
type keyGrid struct {
	name    string
	keys    *[][]taskrt.Dep
	bufs    *[][]*tensor.Matrix
	cols    func(l int) int
	operand bool // a per-task operand panel, left out of workingSetBytes
}

func (w *workspace) listKeyGrids(m *Model) []keyGrid {
	cfg := w.cfg
	hidden := func(int) int { return cfg.HiddenSize }
	gs := []keyGrid{
		{name: "merged", keys: &w.kMerged},
		{name: "dMerged", keys: &w.kDMerged, bufs: &w.dMerged, cols: func(l int) int {
			if !cfg.hasMergePerTimestep(l) {
				return 0
			}
			return cfg.MergeDim()
		}},
	}
	for i := range w.dir {
		d, sfx := &w.dir[i], dirSuffix[i]
		gs = append(gs,
			keyGrid{name: dirName[i] + "St", keys: &d.kSt},
			keyGrid{name: "pre" + sfx, keys: &d.kPre},
			keyGrid{name: "dHMerge" + sfx, keys: &d.kDHMerge, bufs: &d.dHMerge, cols: hidden},
			keyGrid{name: "dHChain" + sfx, keys: &d.kDHChain, bufs: &d.dHChain, cols: hidden},
			keyGrid{name: "dCChain" + sfx, keys: &d.kDCChain, bufs: &d.dCChain, cols: hidden},
			keyGrid{name: "dGates" + sfx, keys: &d.kDGates, bufs: &d.dGates, operand: true, cols: func(l int) int {
				_, gw := m.dir[i][l].dims()
				return gw
			}},
		)
	}
	return gs
}

// fwdBufs holds the forward-pass buffers of one workspace at element type E:
// layer inputs, cell states, merge outputs, head buffers, and the pooled
// gate-preload panels. A workspace is built with the instantiation of its
// engine's inference dtype; a float32 engine's first training step adds the
// float64 one, which the backward pass reads. Backward buffers are float64.
type fwdBufs[E tensor.Elt] struct {
	// x is the layer-0 input, one matrix per timestep. At float64 it is the
	// current step's batch views, pointed here by bindStep; at float32 it is
	// the workspace-owned panels the conv tasks fill from those views.
	x             []*tensor.Mat[E]
	st            [2][][]*cellSt[E] // [direction][layer][timestep]
	merged        [][]*tensor.Mat[E]
	finalMerged   *tensor.Mat[E]
	logits, probs []*tensor.Mat[E] // one per output slot
	zeroH, zeroC  *tensor.Mat[E]

	// Variable-length final-merge support: with a bound lens the forward
	// direction's sequence-final state is row i of st[fwdDir][L-1][lens[i]-1],
	// not st[fwdDir][L-1][T-1]. gatherH assembles it (via gatherIdx =
	// lens[i]-1 over the lastHFwd views); written by the final-merge forward
	// task and reread by the final-merge backward task, which the head tasks
	// already order, so it stays unregistered with the dependency sanitizer.
	lastHFwd  []*tensor.Mat[E] // views of st[fwdDir][L-1][t].H()
	gatherH   *tensor.Mat[E]
	gatherIdx []int

	// pre pools the gate-preload panels, [direction][layer][timestep], each
	// [rows x G*H].
	pre [2][][]*tensor.Mat[E]
}

// token is a unique comparable dependency key naming a workspace buffer.
type token struct{ _ byte }

func newToken() taskrt.Dep { return &token{} }

// hasMergePerTimestep reports whether layer l has a merge cell at every
// timestep (true for all layers except the top layer of a model with no
// per-frame head, which has only the single final merge).
func (c Config) hasMergePerTimestep(l int) bool {
	return l < c.Layers-1 || c.anyPerFrame()
}

// newWorkspace builds mini-batch mbIdx's workspace of `rows` sequences of
// length T: every dependency key, the gradient catalogue's keys and the
// forward half of the buffers (allocForward). The training half waits for the
// workspace's first training step (allocTraining).
func newWorkspace(m *Model, rows, T int, f32 bool, dc *taskrt.DepChecker, mbIdx int) *workspace {
	cfg := m.Cfg
	w := &workspace{rows: rows, T: T, cfg: cfg}
	L := cfg.Layers

	tokens := func(n int) []taskrt.Dep {
		ks := make([]taskrt.Dep, n)
		for i := range ks {
			ks[i] = newToken()
		}
		return ks
	}
	w.keyGrids = w.listKeyGrids(m)
	for _, g := range w.keyGrids {
		*g.keys = make([][]taskrt.Dep, L)
		for l := range *g.keys {
			(*g.keys)[l] = tokens(T)
		}
	}
	specs := cfg.HeadSpecs()
	nSlots := cfg.HeadSlots(T)
	w.kX, w.kX32 = tokens(T), tokens(T)
	w.kFinalMerged, w.kDFinalMerged = newToken(), newToken()
	w.kHeadGrads = tokens(len(specs))
	w.kProbs = tokens(nSlots)
	for i := range w.dir {
		w.dir[i].kGrads = tokens(L)
		w.dir[i].kDFinalH = newToken()
	}
	for l := 0; l < L; l++ {
		w.grads = append(w.grads, gradRef{key: w.dir[fwdDir].kGrads[l]}, gradRef{key: w.dir[revDir].kGrads[l]})
	}
	for _, k := range w.kHeadGrads {
		w.grads = append(w.grads, gradRef{key: k})
	}
	w.losses = make([]float64, nSlots)
	w.allocForward(m, f32, dc, mbIdx)
	return w
}

// allocForward allocates the forward half of a workspace — the
// forward buffers at the engine's inference dtype only, and the generate
// heads' label rows, which a labelled forward-only step reads too — and
// registers it with dc (when non-nil), so an access to a buffer can be
// attributed to the key a task should have declared. The float32 buffers
// share the float64 buffers' keys: the graph has the identical topology. Only
// the converted inputs get distinct keys (kX32), because conv tasks that read
// kX write them. Scratch buffers private to one task body (dHSum*, sinks,
// zeroH/C) stay unregistered, so accesses to them are never reported.
func (w *workspace) allocForward(m *Model, f32 bool, dc *taskrt.DepChecker, mbIdx int) {
	if slices.ContainsFunc(m.Cfg.HeadSpecs(), func(s HeadSpec) bool { return s.Kind == HeadGenerate }) {
		w.genTargets, w.ignoreRow = make([][]int, w.T), slices.Repeat([]int{tensor.IgnoreLabel}, w.rows)
	}
	if !f32 {
		w.fwdBufs = newFwdBufs[float64](m, w.rows, w.T)
		if dc != nil {
			registerFwdDeps(dc, w, &w.fwdBufs, "", mbIdx)
		}
		return
	}
	s := newFwdBufs[float32](m, w.rows, w.T)
	s.x = matRow[float32](w.T, w.rows, m.Cfg.InputSize)
	w.f32 = &s
	if dc != nil {
		registerFwdDeps(dc, w, w.f32, "32", mbIdx)
		for t, x := range s.x {
			regMats(dc, w.kX32[t], fmt.Sprintf("x32 t%d mb%d", t, mbIdx), x)
		}
	}
}

// allocTraining builds the training half of a workspace and
// registers each buffer with dc (when non-nil) as it allocates it: the
// float64 forward buffers a float32 engine lacks, the backward key grids, the
// final-merge gradients, the per-layer backward scratch and dw stacks, and the
// weight and head gradients behind the catalogue.
func (w *workspace) allocTraining(m *Model, dc *taskrt.DepChecker, mbIdx int) {
	cfg, rows, T := w.cfg, w.rows, w.T
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()
	reg := func(k taskrt.Dep, buf *tensor.Matrix, format string, args ...any) {
		if dc != nil {
			regMats(dc, k, fmt.Sprintf(format+" mb%d", append(args, mbIdx)...), buf)
		}
	}

	if w.f32 != nil {
		w.fwdBufs = newFwdBufs[float64](m, rows, T)
		if dc != nil {
			registerFwdDeps(dc, w, &w.fwdBufs, "", mbIdx)
		}
	}
	for _, g := range w.keyGrids {
		if g.bufs == nil {
			continue
		}
		*g.bufs = make([][]*tensor.Matrix, L)
		for l := range *g.bufs {
			if c := g.cols(l); c > 0 {
				(*g.bufs)[l] = matRow[float64](T, rows, c)
			}
			for t, buf := range (*g.bufs)[l] {
				reg((*g.keys)[l][t], buf, "%s L%d t%d", g.name, l, t)
			}
		}
	}
	if cfg.anyClassify() {
		w.dFinalMerged = tensor.New(rows, D)
		reg(w.kDFinalMerged, w.dFinalMerged, "dFinalMerged")
	}
	cat := w.grads // Model.params order: per layer both directions, then the heads
	for i := range w.dir {
		d := &w.dir[i]
		if cfg.anyClassify() {
			d.dFinalH = tensor.New(rows, H)
			reg(d.kDFinalH, d.dFinalH, "dFinalH%s", dirSuffix[i])
		}
		d.dHSum = matRow[float64](L, rows, H)
		d.dHSink = matRow[float64](L, rows, H)
		d.dCSink = matRow[float64](L, rows, H)
		for l, p := range m.dir[i] {
			in, gw := p.dims()
			g, pair := p.newGrads()
			d.grads = append(d.grads, g)
			d.stackP = append(d.stackP, tensor.New(gw, T*rows))
			d.stackB = append(d.stackB, tensor.New(max(in, H), T*rows))
			cat[2*l+i].wb = pair
			reg(cat[2*l+i].key, pair.W, "grads%s L%d", dirSuffix[i], l)
		}
	}
	for h, spec := range cfg.HeadSpecs() {
		g := &cat[2*L+h]
		g.wb = wb{tensor.New(spec.Classes, D), make([]float64, spec.Classes)}
		w.headGrads = append(w.headGrads, g.wb)
		w.dLogits = append(w.dLogits, tensor.New(rows, spec.Classes))
		reg(g.key, g.W, "headGrads h%d", h)
		reg(g.key, w.dLogits[h], "headGrads h%d", h)
	}
}

// newFwdBufs allocates one workspace's forward buffers at element type E. x
// is left to the caller (see fwdBufs.x).
func newFwdBufs[E tensor.Elt](m *Model, rows, T int) fwdBufs[E] {
	cfg := m.Cfg
	L := cfg.Layers
	H := cfg.HiddenSize
	D := cfg.MergeDim()
	var b fwdBufs[E]
	b.merged = make([][]*tensor.Mat[E], L)
	for l := 0; l < L; l++ {
		if cfg.hasMergePerTimestep(l) {
			b.merged[l] = matRow[E](T, rows, D)
		}
	}
	for d := range m.dir {
		for _, p := range m.dir[d] {
			sts := make([]*cellSt[E], T)
			for t := range sts {
				sts[t] = newCellSt[E](p, rows)
			}
			_, gw := p.dims()
			b.st[d] = append(b.st[d], sts)
			b.pre[d] = append(b.pre[d], matRow[E](T, rows, gw))
		}
	}
	if cfg.anyClassify() {
		b.finalMerged = tensor.NewOf[E](rows, D)
		b.gatherH = tensor.NewOf[E](rows, H)
		b.gatherIdx = make([]int, rows)
		b.lastHFwd = make([]*tensor.Mat[E], T)
		for t := 0; t < T; t++ {
			b.lastHFwd[t] = b.st[fwdDir][L-1][t].H()
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
	return b
}

func matRow[E tensor.Elt](n, rows, cols int) []*tensor.Mat[E] {
	out := make([]*tensor.Mat[E], n)
	for i := range out {
		out[i] = tensor.NewOf[E](rows, cols)
	}
	return out
}

// bindStep binds mb's views, fits the forward buffers to mb's rows, with
// forward tasks at timesteps ≥ maxLen skipped, and clears the step's losses.
// It must run before emitting or replaying any graph over this workspace.
func (w *workspace) bindStep(mb *Batch, maxLen int) {
	clear(w.losses)
	w.fitRows(mb.X[0].Rows)
	w.x = mb.X
	w.bind.targets = mb.Targets
	w.bind.stepTargets = mb.StepTargets
	w.bind.lens = mb.Lens
	w.bind.maxLen = maxLen
	w.bind.genTargets = nil
	if w.genTargets != nil && mb.StepTargets != nil {
		copy(w.genTargets, mb.StepTargets[1:])
		w.genTargets[w.T-1] = w.ignoreRow
		w.bind.genTargets = w.genTargets
	}
}

// fitRows reshapes every workspace-owned forward buffer in place to its
// leading n rows of the unchanged allocation, so forward kernels run on n
// rows; a later step at more rows (training binds all) restores them. Headers
// keep their identity: replayed closures and the dependency sanitizer hold
// buffers by pointer. The float64 x is the caller's view, never reshaped.
func (w *workspace) fitRows(n int) {
	w.fwdBufs.fitRows(n)
	if w.f32 != nil {
		w.f32.fitRows(n)
		fitMats(n, w.f32.x...)
	}
}

// fitRows fits one dtype's buffers, if allocated; see workspace.fitRows.
func (b *fwdBufs[E]) fitRows(n int) {
	if b.zeroH == nil || b.zeroH.Rows == n {
		return
	}
	for d := range b.st {
		for l := range b.st[d] {
			for _, st := range b.st[d][l] {
				fitMats(n, st.mats()...)
			}
		}
		for _, pre := range b.pre[d] {
			fitMats(n, pre...)
		}
	}
	for _, ms := range b.merged {
		fitMats(n, ms...)
	}
	fitMats(n, b.finalMerged, b.gatherH, b.zeroH, b.zeroC)
	fitMats(n, b.logits...)
	fitMats(n, b.probs...)
}

func fitMats[E tensor.Elt](n int, ms ...*tensor.Mat[E]) {
	for _, m := range ms {
		if m != nil {
			m.Rows, m.Data = n, m.Data[:n*m.Cols]
		}
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
	st := b.st[revDir][l][t]
	tensor.MaskRowsZero(st.H(), lens, t)
	tensor.MaskRowsZero(st.C(), lens, t)
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
	tensor.GatherRows(b.gatherH, b.lastHFwd, b.gatherIdx[:len(lens)])
	return b.gatherH
}

// resetForStep readies w for a training step, the one point every training
// step (bindWorkspaces, B-Seq's sub-engines included) passes before any
// capture. The first call allocates the training half, zeroed; later ones
// zero what accumulates across tasks within a step: dMerged, dFinalMerged
// and the gradients. Boundary chain and merge-grad buffers stay zero by
// construction.
func (w *workspace) resetForStep(m *Model, dc *taskrt.DepChecker, mbIdx int) {
	if w.dir[fwdDir].grads == nil {
		w.allocTraining(m, dc, mbIdx)
		return
	}
	for _, row := range w.dMerged {
		for _, m := range row {
			m.Zero()
		}
	}
	if w.dFinalMerged != nil {
		w.dFinalMerged.Zero()
	}
	for _, g := range w.grads {
		g.zero()
	}
}

// workingSetBytes estimates the resident bytes of this workspace's activation
// and gradient buffers once it trains — the quantity the paper's memory study
// reports (75.36 MB without per-layer sync vs 28.26 MB with, for an 8-layer
// BLSTM at mbs:6) — from shapes, so it allocates nothing. Cell states count
// every buffer the split cell kernels cache; the gate-preload and
// gate-gradient panels are left out, as the paper's figure counts activations
// and gradients, not per-task operands.
func (w *workspace) workingSetBytes() int64 {
	total := w.fwdBufs.workingSetBytes()
	if w.f32 != nil {
		// The float32 buffers plus training's float64 ones: the same shapes
		// at twice the element size.
		total = 3 * w.f32.workingSetBytes()
	}
	for _, g := range w.keyGrids {
		if g.bufs == nil || g.operand {
			continue
		}
		for l := range w.cfg.Layers {
			total += int64(8 * w.T * w.rows * g.cols(l))
		}
	}
	if w.cfg.anyClassify() {
		total += int64(8 * w.rows * w.cfg.MergeDim()) // dFinalMerged
	}
	return total
}

// workingSetBytes is the forward half of workspace.workingSetBytes at one
// element type: cell states, merge outputs and head buffers. Layer-0 inputs
// are left out at both dtypes (the caller's batch at float64, its converted
// copy at float32), like the preload panels.
func (b *fwdBufs[E]) workingSetBytes() int64 {
	var total int64
	for l := range b.merged {
		total += matsBytes(b.merged[l]...)
		for d := range b.st {
			for _, st := range b.st[d][l] {
				total += st.workingSetBytes()
			}
		}
	}
	return total + matsBytes(b.finalMerged) + matsBytes(b.logits...) + matsBytes(b.probs...)
}

// matsBytes sums the allocated storage of the non-nil matrices in ms.
func matsBytes[E tensor.Elt](ms ...*tensor.Mat[E]) int64 {
	var n int64
	for _, m := range ms {
		if m != nil {
			n += int64(cap(m.Data))
		}
	}
	return n * int64(tensor.DTypeOf[E]().Size())
}
