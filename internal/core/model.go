package core

import (
	"fmt"
	"slices"
	"sync/atomic"

	"bpar/internal/cell"
	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// dirFwd is the forward-kernel view of one direction of one layer at element
// type E, dispatching on cell kind so the emission code is written once for
// every cell. The float64 instantiation is the master copy: it is embedded
// in dirParams, which training reads and updates. The float32 instantiation
// is the engine's inference mirror, converted from the master.
type dirFwd[E tensor.Elt] struct {
	kind CellKind
	lstm *cell.LSTMWeightsOf[E]
	gru  *cell.GRUWeightsOf[E]
	rnn  *cell.RNNWeightsOf[E]
	// pack, when non-nil, holds packed copies of the weight panels and the
	// forward kernels read those; when nil they read the column windows of W
	// in place. Both accumulate bitwise-identically per dtype. The float32
	// mirror packs; the float64 master never does (see DESIGN.md §14 for the
	// measurements behind that).
	pack *cell.PackSet[E]
}

// dirParams is the trainable float64 state of one direction of one layer.
type dirParams struct {
	dirFwd[float64]
}

func newDirParams(kind CellKind, inputSize, hiddenSize int, r *rng.RNG) *dirParams {
	p := &dirParams{dirFwd[float64]{kind: kind}}
	switch kind {
	case LSTM:
		p.lstm = cell.NewLSTMWeights(inputSize, hiddenSize)
		p.lstm.Init(r)
	case GRU:
		p.gru = cell.NewGRUWeights(inputSize, hiddenSize)
		p.gru.Init(r)
	default:
		p.rnn = cell.NewRNNWeights(inputSize, hiddenSize)
		p.rnn.Init(r)
	}
	return p
}

// newDirMirror converts p's weights into a fresh E-typed view with packed
// weight panels.
func newDirMirror[E tensor.Elt](p *dirParams) *dirFwd[E] {
	d := &dirFwd[E]{kind: p.kind}
	switch p.kind {
	case LSTM:
		d.lstm = cell.ConvertLSTMWeights[E](p.lstm)
		d.pack = cell.PackLSTM(d.lstm)
	case GRU:
		d.gru = cell.ConvertGRUWeights[E](p.gru)
		d.pack = cell.PackGRU(d.gru)
	default:
		d.rnn = cell.ConvertRNNWeights[E](p.rnn)
		d.pack = cell.PackRNN(d.rnn)
	}
	return d
}

// refresh re-converts the mirror from the master weights in place, so
// pointers captured by replay templates and packed panels stay valid.
func (d *dirFwd[E]) refresh(p *dirParams) {
	switch d.kind {
	case LSTM:
		cell.ConvertLSTMWeightsInto(d.lstm, p.lstm)
	case GRU:
		cell.ConvertGRUWeightsInto(d.gru, p.gru)
	default:
		cell.ConvertRNNWeightsInto(d.rnn, p.rnn)
	}
	if d.pack != nil {
		d.pack.Repack()
	}
}

// Direction is an array index throughout this package: fwdDir is the
// forward-order RNN of Algorithm 2, revDir the reverse-order RNN of Algorithm
// 3 — the same recurrence with the time index reversed. dirName and dirSuffix
// spell an index in task labels ("fwd L0 t3") and depcheck key names
// ("dHChainFwd").
const (
	fwdDir = 0
	revDir = 1
)

var (
	dirName   = [2]string{"fwd", "rev"}
	dirSuffix = [2]string{"Fwd", "Rev"}
)

// dirIdx maps an emitter's rev flag onto the direction index.
func dirIdx(rev bool) int {
	if rev {
		return revDir
	}
	return fwdDir
}

// fwdWeights is the forward-kernel view of a whole model at element type E:
// one dirFwd per direction and layer plus the output heads. It is what a
// forward emission reads its weights through.
type fwdWeights[E tensor.Elt] struct {
	dir   [2][]*dirFwd[E] // [direction][layer]
	headW []*tensor.Mat[E]
	headB [][]E
}

// masterFwdWeights returns m's float64 view. It aliases the trainable
// weights, so updates show through it with no refresh.
func masterFwdWeights(m *Model) *fwdWeights[float64] {
	w := &fwdWeights[float64]{}
	for d := range m.dir {
		for _, p := range m.dir[d] {
			w.dir[d] = append(w.dir[d], &p.dirFwd)
		}
	}
	for h := range m.Heads {
		w.headW = append(w.headW, m.Heads[h].W)
		w.headB = append(w.headB, m.Heads[h].B)
	}
	return w
}

// newFwdMirror converts m's weights into a fresh E-typed view — the
// inference mirror, packed panels included; training and checkpoints never
// see it.
func newFwdMirror[E tensor.Elt](m *Model) *fwdWeights[E] {
	w := &fwdWeights[E]{}
	for d := range m.dir {
		for _, p := range m.dir[d] {
			w.dir[d] = append(w.dir[d], newDirMirror[E](p))
		}
	}
	for h := range m.Heads {
		w.headW = append(w.headW, tensor.ConvertedOf[E](m.Heads[h].W))
		w.headB = append(w.headB, make([]E, len(m.Heads[h].B)))
		tensor.ConvertSlice(w.headB[h], m.Heads[h].B)
	}
	return w
}

// refresh re-converts the whole mirror from m in place.
func (w *fwdWeights[E]) refresh(m *Model) {
	for d := range w.dir {
		for l, v := range w.dir[d] {
			v.refresh(m.dir[d][l])
		}
	}
	for h := range w.headW {
		tensor.ConvertInto(w.headW[h], m.Heads[h].W)
		tensor.ConvertSlice(w.headB[h], m.Heads[h].B)
	}
}

func (p *dirParams) paramCount() int {
	switch p.kind {
	case LSTM:
		return p.lstm.ParamCount()
	case GRU:
		return p.gru.ParamCount()
	default:
		return p.rnn.ParamCount()
	}
}

// cellSt is the per-cell activation/cache record for either cell kind.
type cellSt[E tensor.Elt] struct {
	lstm *cell.LSTMStateOf[E]
	gru  *cell.GRUStateOf[E]
	rnn  *cell.RNNStateOf[E]
}

// newCellSt allocates an activation record shaped like p at element type E.
func newCellSt[E tensor.Elt](p *dirParams, batch int) *cellSt[E] {
	in, _ := p.dims()
	switch p.kind {
	case LSTM:
		return &cellSt[E]{lstm: cell.NewLSTMStateOf[E](batch, in, p.hiddenSize())}
	case GRU:
		return &cellSt[E]{gru: cell.NewGRUStateOf[E](batch, in, p.hiddenSize())}
	default:
		return &cellSt[E]{rnn: cell.NewRNNStateOf[E](batch, in, p.hiddenSize())}
	}
}

// H returns the cell's hidden output H_t.
func (s *cellSt[E]) H() *tensor.Mat[E] {
	switch {
	case s.lstm != nil:
		return s.lstm.H
	case s.gru != nil:
		return s.gru.H
	default:
		return s.rnn.H
	}
}

// C returns the LSTM cell state (nil for GRU and RNN).
func (s *cellSt[E]) C() *tensor.Mat[E] {
	if s.lstm != nil {
		return s.lstm.C
	}
	return nil
}

func (s *cellSt[E]) workingSetBytes() int64 { return matsBytes(s.mats()...) }

// forwardPre runs the chain-resident forward remainder of one cell, through
// the packed recurrent panels when the view packs. cPrev is ignored for GRU and
// RNN.
func (d *dirFwd[E]) forwardPre(pre, hPrev, cPrev *tensor.Mat[E], st *cellSt[E]) {
	if d.pack != nil {
		switch d.kind {
		case LSTM:
			cell.LSTMForwardPrePacked(d.lstm, pre, hPrev, cPrev, st.lstm, d.pack)
		case GRU:
			cell.GRUForwardPrePacked(d.gru, pre, hPrev, st.gru, d.pack)
		default:
			cell.RNNForwardPrePacked(d.rnn, pre, hPrev, st.rnn, d.pack)
		}
		return
	}
	switch d.kind {
	case LSTM:
		cell.LSTMForwardPre(d.lstm, pre, hPrev, cPrev, st.lstm)
	case GRU:
		cell.GRUForwardPre(d.gru, pre, hPrev, st.gru)
	default:
		cell.RNNForwardPre(d.rnn, pre, hPrev, st.rnn)
	}
}

// preGatesBatch computes pres[s] = xs[s]*Wx^T + B for a tile of timesteps
// with one batched kernel call, so the Wx panel is streamed from memory once
// per tile instead of once per timestep. The accumulation order (bias first,
// then the column-window product) is the same with and without packing.
func (d *dirFwd[E]) preGatesBatch(xs, pres []*tensor.Mat[E]) {
	w, b := d.wParams()
	for _, pre := range pres {
		pre.Zero()
		tensor.AddBiasRows(pre, b)
	}
	if d.pack != nil {
		tensor.GemmTAccColsPackedBatch(pres, xs, d.pack.X)
		return
	}
	tensor.GemmTAccColsBatch(pres, xs, w, 0)
}

// wParams returns the weight matrix and bias slice of the parameters.
func (d *dirFwd[E]) wParams() (*tensor.Mat[E], []E) {
	switch d.kind {
	case LSTM:
		return d.lstm.W, d.lstm.B
	case GRU:
		return d.gru.W, d.gru.B
	default:
		return d.rnn.W, d.rnn.B
	}
}

// dims returns the direction's input size and gate-panel width G*H — the
// shape [batch x gw] of one preload/gradient panel.
func (p *dirParams) dims() (in, gw int) {
	switch p.kind {
	case LSTM:
		return p.lstm.InputSize, p.lstm.W.Rows
	case GRU:
		return p.gru.InputSize, p.gru.W.Rows
	default:
		return p.rnn.InputSize, p.rnn.W.Rows
	}
}

// dxBatch accumulates the hoisted input gradients of one timestep tile into
// the layer-below merge-gradient buffers: dsts[s] += panels[s] * Wx.
func (p *dirParams) dxBatch(dsts, panels []*tensor.Matrix) {
	w, _ := p.wParams()
	_, gw := p.dims()
	tensor.GemmAccColsBatch(dsts, panels, 0, gw, w, 0)
}

// dwBatch folds the direction's whole-sequence gate-gradient panels into the
// weight and bias gradients — the body of the batched off-chain dw task. rhs
// is the GRU candidate path's cached r⊙hPrev sequence and ignored for the
// other cells; stackP/stackB are the workspace's transposition scratch.
func (p *dirParams) dwBatch(g *dirGrads, panels, xs, hPrevs, rhs []*tensor.Matrix, stackP, stackB *tensor.Matrix) {
	switch p.kind {
	case LSTM:
		cell.LSTMDWBatch(p.lstm, g.lstm, panels, xs, hPrevs, stackP, stackB)
	case GRU:
		cell.GRUDWBatch(p.gru, g.gru, panels, xs, hPrevs, rhs, stackP, stackB)
	default:
		cell.RNNDWBatch(p.rnn, g.rnn, panels, xs, hPrevs, stackP, stackB)
	}
}

// hiddenSize returns the direction's hidden width.
func (p *dirParams) hiddenSize() int {
	switch p.kind {
	case LSTM:
		return p.lstm.HiddenSize
	case GRU:
		return p.gru.HiddenSize
	default:
		return p.rnn.HiddenSize
	}
}

// backwardPre runs the chain-resident backward remainder of one cell, leaving
// the pre-activation gate gradients in dGates for the batched dw and dx
// tasks.
// dC/dCPrev are ignored for GRU and RNN.
func (p *dirParams) backwardPre(st *cellSt[float64], hPrev, cPrev, dH, dC, dGates, dHPrev, dCPrev *tensor.Matrix, g *dirGrads) {
	switch p.kind {
	case LSTM:
		cell.LSTMBackwardPre(p.lstm, st.lstm, hPrev, cPrev, dH, dC, dGates, nil, dHPrev, dCPrev, nil)
	case GRU:
		cell.GRUBackwardPre(p.gru, st.gru, hPrev, dH, dGates, nil, dHPrev, g.gru)
	default:
		cell.RNNBackwardPre(p.rnn, st.rnn, hPrev, dH, dGates, dHPrev)
	}
}

// projFlops estimates one timestep's input-projection task cost.
func (p *dirParams) projFlops(batch int) float64 {
	in, gw := p.dims()
	return cell.ProjFlops(batch, in, gw)
}

// chainFwdFlops estimates the chain-resident forward cell cost.
func (p *dirParams) chainFwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMChainForwardFlops(batch, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUChainForwardFlops(batch, p.gru.HiddenSize)
	default:
		return cell.RNNChainForwardFlops(batch, p.rnn.HiddenSize)
	}
}

// chainBwdFlops estimates the chain-resident backward cell cost (dX and dW
// excluded — both are hoisted into batched off-chain tasks).
func (p *dirParams) chainBwdFlops(batch int) float64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMChainBackwardFlops(batch, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUChainBackwardFlops(batch, p.gru.HiddenSize)
	default:
		return cell.RNNChainBackwardFlops(batch, p.rnn.HiddenSize)
	}
}

// dxFlops estimates one timestep's hoisted input-gradient task cost.
func (p *dirParams) dxFlops(batch int) float64 {
	in, gw := p.dims()
	return cell.DXFlops(batch, in, gw)
}

// dwFlops estimates the whole-sequence batched weight-gradient task cost.
func (p *dirParams) dwFlops(seq, batch int) float64 {
	in, gw := p.dims()
	return cell.DWFlops(seq, batch, in, p.hiddenSize(), gw)
}

// taskWorkingSet estimates the bytes one cell task touches: weights,
// activations and caches.
func (p *dirParams) taskWorkingSet(batch int) int64 {
	switch p.kind {
	case LSTM:
		return cell.LSTMWorkingSetBytes(batch, p.lstm.InputSize, p.lstm.HiddenSize)
	case GRU:
		return cell.GRUWorkingSetBytes(batch, p.gru.InputSize, p.gru.HiddenSize)
	default:
		return cell.RNNWorkingSetBytes(batch, p.rnn.InputSize, p.rnn.HiddenSize)
	}
}

// dirGrads accumulates weight gradients for one direction of one layer.
type dirGrads struct {
	lstm *cell.LSTMGrads
	gru  *cell.GRUGrads
	rnn  *cell.RNNGrads
}

// newGrads allocates zeroed gradients shaped like p, also returned as their
// weight/bias pair.
func (p *dirParams) newGrads() (*dirGrads, wb) {
	switch p.kind {
	case LSTM:
		g := cell.NewLSTMGrads(p.lstm)
		return &dirGrads{lstm: g}, wb{g.DW, g.DB}
	case GRU:
		g := cell.NewGRUGrads(p.gru)
		return &dirGrads{gru: g}, wb{g.DW, g.DB}
	default:
		g := cell.NewRNNGrads(p.rnn)
		return &dirGrads{rnn: g}, wb{g.DW, g.DB}
	}
}

// wb is one weight-shaped tensor pair — a parameter set, its gradient, or an
// optimizer moment: a matrix plus a bias-shaped vector. Every host-side pass
// over the model (normalize, clip, SGD, Adam, the mini-batch
// reduction, checkpoints, comparisons) is one loop over a list of these, in
// Model.params order.
type wb struct {
	W *tensor.Matrix
	B []float64
}

func (a wb) zero() {
	a.W.Zero()
	clear(a.B)
}

func (a wb) scale(alpha float64) {
	tensor.ScaleInPlace(a.W, alpha)
	for i := range a.B {
		a.B[i] *= alpha
	}
}

// axpy accumulates alpha * x into a: the mini-batch reduction (alpha = 1) and
// the SGD update (alpha = -lr).
func (a wb) axpy(alpha float64, x wb) {
	tensor.AxpyMatrix(a.W, alpha, x.W)
	tensor.Axpy(alpha, x.B, a.B)
}

// clip clamps magnitudes; keeps small-model training stable.
func (a wb) clip(limit float64) {
	tensor.ClipInPlace(a.W, limit)
	for i, v := range a.B {
		a.B[i] = min(max(v, -limit), limit)
	}
}

// count returns the number of scalars in the pair.
func (a wb) count() int { return len(a.W.Data) + len(a.B) }

// Head is one trained output head on the shared bidirectional trunk: a
// [Classes x MergeDim] affine projection plus softmax, applied either to the
// sequence-final merged state (HeadClassify) or to every timestep's merged
// state (HeadTag, HeadGenerate).
type Head struct {
	Kind    HeadKind
	Classes int
	W       *tensor.Matrix // [Classes x MergeDim]
	B       []float64
}

// Model holds the parameters of one BRNN: per layer, one forward-order and
// one reverse-order parameter set (the paper's two sets of weights and
// biases), plus the output heads. Weights are shared across all unrolled
// timestamps of a layer — the working-set optimization of Section II.
type Model struct {
	Cfg Config

	dir [2][]*dirParams // [direction][layer]

	// params is the parameter catalogue: every trainable tensor pair in the
	// one order the whole package agrees on — per layer the forward then the
	// reverse direction, then the heads — which is the checkpoint byte order,
	// the reduce-task submission order and the layout of workspace.grads and
	// the optimizer moments. It aliases dir and Heads.
	params []param

	// Heads are the output heads, in Cfg.HeadSpecs() order. Single-head
	// configs hold exactly the pre-refactor classifier parameters.
	Heads []Head

	// mut counts weight updates. Engines key their derived weight caches
	// (packed panels, float32 mirrors) on it so a cache is rebuilt exactly
	// when the weights moved. Shared — not copied — by WithBatch views so an
	// update through any view invalidates every engine's caches.
	mut *atomic.Uint64
}

// weightVersion returns the current weight-update counter (0 for models built
// by struct literal in tests, which then always refresh).
func (m *Model) weightVersion() uint64 {
	if m.mut == nil {
		return 0
	}
	return m.mut.Load()
}

// noteWeightUpdate bumps the weight version.
func (m *Model) noteWeightUpdate() {
	if m.mut != nil {
		m.mut.Add(1)
	}
}

// NewModel validates cfg and builds a deterministically initialized model.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	m := &Model{Cfg: cfg, mut: new(atomic.Uint64)}
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.LayerInputSize(l)
		for d := range m.dir {
			p := newDirParams(cfg.Cell, in, cfg.HiddenSize, r.Split())
			m.dir[d] = append(m.dir[d], p)
			w, b := p.wParams()
			m.params = append(m.params, param{fmt.Sprintf("L%d dir%d", l, d), wb{w, b}})
		}
	}
	d := cfg.MergeDim()
	scale := 1.0 / mathSqrt(float64(d))
	for i, spec := range cfg.HeadSpecs() {
		h := Head{Kind: spec.Kind, Classes: spec.Classes, W: tensor.New(spec.Classes, d), B: make([]float64, spec.Classes)}
		hr := r.Split()
		hr.FillUniform(h.W.Data, -scale, scale)
		m.Heads = append(m.Heads, h)
		m.params = append(m.params, param{fmt.Sprintf("head%d", i), wb{h.W, h.B}})
	}
	return m, nil
}

// param is one entry of the model's parameter catalogue.
type param struct {
	name string // "L2 dir1", "head0": how task labels and errors spell it
	wb
}

// ParamCount returns the recurrent parameter count (matches the paper's
// tables); the head adds HeadParamCount more.
func (m *Model) ParamCount() int {
	total := 0
	for d := range m.dir {
		for _, p := range m.dir[d] {
			total += p.paramCount()
		}
	}
	return total
}

// WithBatch returns a model sharing this model's weights but configured for
// a different batch size and mini-batch split — e.g. to run single-sequence
// inference with weights trained at a larger batch. Training through either
// view updates the same parameters.
func (m *Model) WithBatch(batch, miniBatches int) (*Model, error) {
	cfg := m.Cfg
	cfg.Batch = batch
	cfg.MiniBatches = miniBatches
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return m.view(cfg), nil
}

// view returns a model sharing m's weights and weight version under cfg.
func (m *Model) view(cfg Config) *Model {
	return &Model{Cfg: cfg, dir: m.dir, params: m.params, Heads: m.Heads, mut: m.mut}
}

// WeightsEqual reports bitwise equality of all parameters — the
// determinism/equivalence check used by the accuracy-preservation tests.
func (m *Model) WeightsEqual(o *Model) bool {
	if len(m.params) != len(o.params) {
		return false
	}
	for i, p := range m.params {
		if q := o.params[i]; !p.W.Equal(q.W) || !slices.Equal(p.B, q.B) {
			return false
		}
	}
	return true
}

// WeightsMaxAbsDiff returns the largest absolute parameter difference
// between two models with identical configuration.
func (m *Model) WeightsMaxAbsDiff(o *Model) float64 {
	diff := 0.0
	for i, p := range m.params {
		q := o.params[i]
		diff = max(diff, p.W.MaxAbsDiff(q.W), sliceMaxAbsDiff(p.B, q.B))
	}
	return diff
}

func sliceMaxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
