package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"bpar/internal/obs"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// ErrEngineBusy is returned when TrainStep, Infer, or InferProbs is called
// while another step is still executing on the same engine. Engine is
// single-threaded by design — the per-step workspaces are shared mutable
// state — so concurrent callers must use one engine each (see
// internal/serve's engine pool).
var ErrEngineBusy = errors.New("core: engine already executing a step (Engine is single-threaded; use one engine per goroutine)")

// Batch is one training or inference batch: per-timestep input matrices and
// the labels appropriate to the architecture.
type Batch struct {
	// X has one [Batch x InputSize] matrix per timestep.
	X []*tensor.Matrix
	// Targets holds the per-sequence class labels (many-to-one).
	Targets []int
	// StepTargets holds per-timestep class labels (many-to-many),
	// indexed [timestep][sequence].
	StepTargets [][]int
	// Real is the number of leading rows that carry real sequences; rows
	// [Real, Batch) are padding added to fill a partial batch (the serving
	// path pads micro-batches up to Cfg.Batch). Zero means every row is
	// real; negative means every row is padding (a value mini-batch slicing
	// produces when a partial batch's real rows all land in earlier slices).
	// Forward-only steps compute the real rows only: padding rows' labels
	// are ignored, the loss is a mean over the real rows, and padding rows'
	// probabilities read 0. Training computes every row. Throughput metrics
	// count only real rows.
	Real int

	// Lens, when non-nil, gives each row's true sequence length (1 ≤
	// Lens[i] ≤ SeqLen): row i's timesteps [Lens[i], SeqLen) are padding.
	// The engine masks the reverse direction's state at padded steps and
	// gathers each row's forward output at its own boundary, so a masked
	// row trains and infers bitwise-equal (under ==) to running it at its
	// true length. Forward-only steps do not compute timesteps at or past
	// the real rows' max(Lens): their per-frame probabilities read 0.
	// Per-frame labels beyond a row's length must be tensor.IgnoreLabel.
	// Nil means every row spans the full SeqLen.
	Lens []int
}

// SeqLen returns the batch's sequence length.
func (b *Batch) SeqLen() int { return len(b.X) }

// realRows returns the number of non-padding rows among rows [lo, hi).
func (b *Batch) realRows(lo, hi int) int {
	switch {
	case b.Real > 0:
		return min(max(b.Real-lo, 0), hi-lo)
	case b.Real < 0:
		return 0
	default:
		return hi - lo
	}
}

// Engine drives B-Par execution of one model on one executor: it replays the
// captured forward and backward task graph of each batch's shape, waits for
// dataflow completion, and applies the optimizer. It owns the per-mini-batch
// workspaces (the mbs:N data parallelism of the paper).
type Engine struct {
	M    *Model
	Exec taskrt.Executor

	// GradClip, when positive, clamps each normalized gradient element to
	// [-GradClip, GradClip] before the SGD update.
	GradClip float64

	// Adam selects the Adam optimizer (beta1 0.9, beta2 0.999, eps 1e-8)
	// over plain SGD.
	Adam bool

	// MaxCachedSeqLens bounds how many distinct sequence lengths keep live
	// workspaces in the cache (LRU eviction). Zero means the default of 8.
	// Variable-length serving workloads would otherwise accumulate one
	// workspace set per length seen.
	MaxCachedSeqLens int

	// NoReplay drops a step's cached template before the step, so every
	// step captures its task graph afresh and then replays it. It is the
	// oracle the template cache is tested against: a stale cached template
	// diverges from a fresh capture.
	NoReplay bool

	// InferDType selects the numeric representation of forward-only steps
	// (Infer/InferProbs): tensor.F64 (zero value, the default) runs the
	// float64 graph; tensor.F32 runs a float32 mirror of the model, converted
	// once per weight version. Training is always float64. Set before the
	// first step: workspaces hold forward buffers of this dtype only until
	// they first train.
	InferDType tensor.DType

	// noReduce freezes captured templates with the full derived edge set
	// instead of the transitive reduction (taskrt.Capture.NoReduce). Test
	// oracle only: it lets the replay tests pin reduced == unreduced.
	noReduce bool

	// inStep guards against concurrent TrainStep/Infer/InferProbs calls: a
	// CAS taken at step entry, released on every exit path. Mirrors the
	// replay `live` guard in taskrt.Template, but returns ErrEngineBusy
	// instead of panicking — concurrent use is an expected caller error on
	// the serving path, not runtime corruption.
	inStep atomic.Bool
	// tplHitN/tplMissN count template-cache lookups: serving code reads
	// them through TemplateStats, and EnableObs exports them at scrape time.
	tplHitN, tplMissN atomic.Int64
	wsByT             map[int][]*workspace
	wsLRU             []int // cached sequence lengths, most recently used first
	// tpls caches one frozen task graph per (step kind, sequence length).
	// Template closures reference the workspaces of their T, so the two
	// caches live and die together: evicting a T's workspaces evicts its
	// templates in the same breath.
	tpls map[tplKey]*taskrt.Template
	// rec is the capture the emitters submit into; set only while template
	// is capturing a step.
	rec  *taskrt.Capture
	adam *adamState
	obs  *engineObs // live metrics; nil unless EnableObs was called

	// Forward-kernel views of the model. w64 aliases the master weights. w32
	// is the float32 inference mirror (InferDType == F32): built and
	// refreshed host-side by refreshWeightCaches between steps whenever the
	// model's weight version has moved past cacheVer; task bodies only read
	// it.
	w64      *fwdWeights[float64]
	w32      *fwdWeights[float32]
	cacheVer uint64

	// lastHeadLosses caches the per-head mean losses of the most recent
	// labeled step; read through HeadLosses.
	lastHeadLosses []float64
}

// tplKey identifies one cached step template: a step kind at one sequence
// length.
type tplKey struct {
	kind stepKind
	T    int
}

// defaultMaxCachedSeqLens is the workspace-cache bound when
// MaxCachedSeqLens is left zero.
const defaultMaxCachedSeqLens = 8

// NewEngine creates an engine executing real numeric tasks.
func NewEngine(m *Model, exec taskrt.Executor) *Engine {
	e := &Engine{M: m, Exec: exec, w64: masterFwdWeights(m), wsByT: make(map[int][]*workspace), tpls: make(map[tplKey]*taskrt.Template)}
	if dc := e.depChecker(); dc != nil {
		installDepCheckHook(dc)
	}
	return e
}

// workspaces returns (building if needed) the per-mini-batch workspaces for
// sequence length T. B-Par adjusts the computation graph dynamically when
// the sequence length changes between batches. The cache holds at most
// MaxCachedSeqLens distinct lengths; the least recently used is evicted.
func (e *Engine) workspaces(T int) []*workspace {
	if ws, ok := e.wsByT[T]; ok {
		if e.obs != nil {
			e.obs.cacheHits.Inc()
		}
		e.touchSeqLen(T)
		return ws
	}
	if e.obs != nil {
		e.obs.cacheMisses.Inc()
	}
	n := e.M.Cfg.MiniBatches
	ws := make([]*workspace, n)
	for i := range ws {
		lo, hi := e.M.Cfg.mbBounds(i)
		ws[i] = newWorkspace(e.M, hi-lo, T, e.isF32(), e.depChecker(), i)
	}
	e.wsByT[T] = ws
	e.touchSeqLen(T)
	bound := e.MaxCachedSeqLens
	if bound <= 0 {
		bound = defaultMaxCachedSeqLens
	}
	for len(e.wsLRU) > bound {
		victim := e.wsLRU[len(e.wsLRU)-1]
		e.wsLRU = e.wsLRU[:len(e.wsLRU)-1]
		delete(e.wsByT, victim)
		// Captured templates close over the victim's workspace buffers;
		// they must not outlive them.
		maps.DeleteFunc(e.tpls, func(k tplKey, _ *taskrt.Template) bool { return k.T == victim })
		if e.obs != nil {
			e.obs.cacheEvicts.Inc()
		}
		obs.Logger("core").Debug("workspace evicted", "seq_len", victim, "cached", len(e.wsLRU))
	}
	obs.Logger("core").Debug("workspaces built", "seq_len", T, "mini_batches", n)
	return ws
}

// touchSeqLen moves T to the most-recently-used slot of the LRU list.
func (e *Engine) touchSeqLen(T int) {
	for i, v := range e.wsLRU {
		if v == T {
			copy(e.wsLRU[1:i+1], e.wsLRU[:i])
			e.wsLRU[0] = T
			return
		}
	}
	e.wsLRU = append([]int{T}, e.wsLRU...)
}

// isF32 reports whether forward-only steps run the float32 mirror graph.
func (e *Engine) isF32() bool {
	return e.InferDType == tensor.F32
}

// refreshWeightCaches brings the float32 weight mirror up to date when the
// model's weight version has moved since it was last converted. Runs
// host-side between steps, in place, so replay templates' pointers hold.
func (e *Engine) refreshWeightCaches() {
	if !e.isF32() {
		return
	}
	ver := e.M.weightVersion()
	switch {
	case e.w32 == nil:
		e.w32 = newFwdMirror[float32](e.M)
	case e.M.mut != nil && ver == e.cacheVer:
		return
	default:
		e.w32.refresh(e.M)
	}
	e.cacheVer = ver
}

// mbBounds returns the row range of mini-batch i.
func (cfg Config) mbBounds(i int) (lo, hi int) {
	n := cfg.MiniBatches
	base := cfg.Batch / n
	rem := cfg.Batch % n
	for j := 0; j < i; j++ {
		lo += base
		if j < rem {
			lo++
		}
	}
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// beginStep acquires the single-caller step guard; endStep releases it.
func (e *Engine) beginStep() error {
	if !e.inStep.CompareAndSwap(false, true) {
		return ErrEngineBusy
	}
	return nil
}

func (e *Engine) endStep() { e.inStep.Store(false) }

// hasLabels reports whether b carries the labels the configured heads train
// against — the condition under which a step's loss is meaningful.
func (e *Engine) hasLabels(b *Batch) bool {
	cfg := e.M.Cfg
	if cfg.anyClassify() && b.Targets == nil {
		return false
	}
	if cfg.anyPerFrame() && b.StepTargets == nil {
		return false
	}
	return true
}

// checkBatch validates b's shapes against cfg; needTargets additionally
// requires the labels every configured head trains against.
func (cfg Config) checkBatch(b *Batch, needTargets bool) error {
	if len(b.X) == 0 {
		return fmt.Errorf("core: empty batch")
	}
	if b.Real > cfg.Batch {
		return fmt.Errorf("core: Real = %d out of range [0, %d]", b.Real, cfg.Batch)
	}
	for t, x := range b.X {
		if x.Rows != cfg.Batch || x.Cols != cfg.InputSize {
			return fmt.Errorf("core: X[%d] is %dx%d, want %dx%d", t, x.Rows, x.Cols, cfg.Batch, cfg.InputSize)
		}
	}
	if b.Lens != nil {
		if len(b.Lens) != cfg.Batch {
			return fmt.Errorf("core: got %d lens, want %d", len(b.Lens), cfg.Batch)
		}
		for i, n := range b.Lens {
			if n < 1 || n > len(b.X) {
				return fmt.Errorf("core: Lens[%d] = %d out of range [1, %d]", i, n, len(b.X))
			}
		}
	}
	if cfg.anyClassify() && (b.Targets != nil || needTargets) {
		if len(b.Targets) != cfg.Batch {
			return fmt.Errorf("core: got %d targets, want %d", len(b.Targets), cfg.Batch)
		}
	}
	if cfg.anyPerFrame() && (b.StepTargets != nil || needTargets) {
		if len(b.StepTargets) != len(b.X) {
			return fmt.Errorf("core: got %d step-target rows, want %d", len(b.StepTargets), len(b.X))
		}
		for t := range b.StepTargets {
			if len(b.StepTargets[t]) != cfg.Batch {
				return fmt.Errorf("core: StepTargets[%d] has %d labels, want %d", t, len(b.StepTargets[t]), cfg.Batch)
			}
		}
	}
	return nil
}

// lossScale is the normalizer turning the summed losses/gradients of b's
// first rows rows (all on training steps, the real ones otherwise) into
// means: rows, times sequence length when any head is per-frame — or, for a
// masked batch, those rows' real frames, so a uniformly short masked batch
// scales identically to the same batch run at its true length. At least 1:
// an all-padding step reports a zero loss.
func (cfg Config) lossScale(b *Batch, rows int) float64 {
	s := float64(rows)
	if cfg.anyPerFrame() {
		if b.Lens != nil {
			s = 0
			for _, n := range b.Lens[:rows] {
				s += float64(min(n, b.SeqLen()))
			}
		} else {
			s *= float64(b.SeqLen())
		}
	}
	return max(s, 1)
}

// TrainStep runs one full training step — forward propagation, backward
// propagation, mini-batch gradient reduction, all as one barrier-free task
// graph — then applies an SGD update. It returns the mean batch loss.
func (e *Engine) TrainStep(b *Batch, lr float64) (float64, error) {
	return e.runStep(b, stepTrain, func(wss []*workspace, scale float64) { e.applySGD(wss[0], lr, scale) })
}

// stepKind selects the task graph a step executes.
type stepKind int

const (
	stepInfer        stepKind = iota // forward only, at the inference dtype
	stepTrain                        // barrier-free forward + backward + reduce
	stepTrainBarrier                 // the same tasks between per-layer barriers (barrier.go)
)

// stepNames name each kind's templates ("train T=100").
var stepNames = [...]string{"infer", "train", "barrier"}

// runStep is the one step runner behind TrainStep, TrainStepBarrier and
// InferProbs: validate the batch, take the single-caller guard, bind the
// workspaces, replay the kind's template and total the losses. consume runs
// once the graph has completed and before the guard is released: it applies
// the update or copies results out of the workspaces. Returns the mean batch
// loss.
func (e *Engine) runStep(b *Batch, kind stepKind, consume func(wss []*workspace, scale float64)) (float64, error) {
	train := kind != stepInfer
	if err := e.M.Cfg.checkBatch(b, train); err != nil {
		return 0, err
	}
	if err := e.beginStep(); err != nil {
		return 0, err
	}
	defer e.endStep()
	stepStart := time.Now()
	T := b.SeqLen()
	wss := e.workspaces(T)
	e.refreshWeightCaches()
	dc := e.bindWorkspaces(wss, b, train)
	key := tplKey{kind, T}
	if e.NoReplay {
		delete(e.tpls, key)
	}
	e.Exec.Replay(e.template(key))
	if err := e.Exec.Wait(); err != nil {
		return 0, err
	}

	real, rows := b.realRows(0, e.M.Cfg.Batch), e.M.Cfg.Batch
	if !train {
		rows = real
	}
	scale := e.M.Cfg.lossScale(b, rows)
	loss := 0.0
	for _, ws := range wss {
		loss += ws.sumLosses()
	}
	loss /= scale
	e.recordHeadLosses(wss, T, scale)
	consume(wss, scale)
	if dc != nil {
		// Replays never touch the sanitizer's shadow versions; only this
		// step's input registrations go.
		dc.ResetStepOwners()
	}
	e.recordStep(stepStart, loss, !train, train || e.hasLabels(b), real)
	return loss, nil
}

// bindWorkspaces prepares every workspace for one step over batch b: ready
// the training half on a training step (resetForStep), bind the per-step
// batch views, and (under depcheck) register this step's input matrices. A
// forward-only step touches no training state and binds each micro-batch's
// leading real rows only, skipping the timesteps past its longest real row
// (all of them for an all-padding micro-batch); training binds every row for
// all T, since the backward chains read every row and timestep. Returns the
// sanitizer, nil without one.
func (e *Engine) bindWorkspaces(wss []*workspace, b *Batch, train bool) *taskrt.DepChecker {
	dc := e.depChecker()
	for i, ws := range wss {
		lo, hi := e.M.Cfg.mbBounds(i)
		if train {
			ws.resetForStep(e.M, dc, i)
		} else {
			hi = lo + b.realRows(lo, hi)
		}
		mb := b.sliceRows(lo, hi)
		maxLen := mb.SeqLen()
		switch {
		case lo == hi:
			maxLen = 0
		case !train && mb.Lens != nil:
			maxLen = slices.Max(mb.Lens)
		}
		ws.bindStep(mb, maxLen)
		if dc != nil {
			e.registerStepInputs(dc, ws, mb, i)
		}
	}
	return dc
}

// template returns (capturing on a miss) the frozen task graph of one step
// kind at one sequence length. Capture points the emitters at a fresh
// taskrt.Capture, runs them once, and freezes the recorded sequence; because
// the emitters' closures read only stable workspace buffers and the step
// binding, the resulting template stays valid for every later batch of the
// same shape, for exactly as long as T's workspaces live.
func (e *Engine) template(key tplKey) *taskrt.Template {
	if tpl, ok := e.tpls[key]; ok {
		e.tplHitN.Add(1)
		return tpl
	}
	e.tplMissN.Add(1)
	start := time.Now()
	wss := e.wsByT[key.T]
	e.rec = taskrt.NewCapture()
	e.rec.NoReduce = e.noReduce
	if key.kind == stepTrainBarrier {
		e.emitBarrierGraph(wss)
	} else {
		e.emitStep(key.kind == stepTrain, wss)
	}
	tpl := e.rec.Freeze()
	e.rec = nil
	tpl.Name = fmt.Sprintf("%s T=%d", stepNames[key.kind], key.T)
	e.tpls[key] = tpl
	if e.obs != nil {
		e.obs.tplCaptureNS.Add(time.Since(start).Nanoseconds())
	}
	obs.Logger("core").Debug("task graph captured",
		"template", tpl.Name, "tasks", tpl.Len(), "edges", tpl.Edges())
	return tpl
}

// Infer runs forward propagation only and returns, per output slot, the
// predicted class of every sequence, plus the mean loss when labels are
// present: the row-wise argmax of InferProbs. Slots are laid out head-major
// (Config.HeadSlotRange): a classification head owns one slot, a per-frame
// head one per timestep — so a legacy many-to-one model returns one row and a
// legacy many-to-many model one row per timestep, exactly as before.
func (e *Engine) Infer(b *Batch) ([][]int, float64, error) {
	probs, loss, err := e.InferProbs(b)
	if err != nil {
		return nil, 0, err
	}
	preds := make([][]int, len(probs))
	for s, p := range probs {
		preds[s] = tensor.ArgmaxRows(p)
	}
	return preds, loss, nil
}

// InferProbs runs forward propagation and returns, per output slot, the full
// class-probability matrix ([Batch x head Classes]) for every sequence, plus
// the mean loss when labels are present. Slots are head-major, as in Infer.
// Useful for sampling-based generation and calibration analysis.
func (e *Engine) InferProbs(b *Batch) ([]*tensor.Matrix, float64, error) {
	var probs []*tensor.Matrix
	loss, err := e.runStep(b, stepInfer, func(wss []*workspace, _ float64) { probs = e.gatherProbs(wss) })
	if err != nil {
		return nil, 0, err
	}
	return probs, loss, nil
}

// gatherProbs copies every output slot's probabilities out of the mini-batch
// workspaces into fresh [Batch x Classes] matrices, widening on a float32
// engine. Each workspace contributes the rows its step computed at its own
// row offset; the padding rows a forward-only step skipped read 0.
func (e *Engine) gatherProbs(wss []*workspace) []*tensor.Matrix {
	cfg, T := e.M.Cfg, wss[0].T
	probs := make([]*tensor.Matrix, cfg.HeadSlots(T))
	for h, spec := range cfg.HeadSpecs() {
		lo, n := cfg.HeadSlotRange(h, T)
		for s := lo; s < lo+n; s++ {
			probs[s] = tensor.New(cfg.Batch, spec.Classes)
			off := 0
			for _, ws := range wss {
				dst := probs[s].Data[off:]
				if e.isF32() {
					tensor.ConvertSlice(dst[:len(ws.f32.probs[s].Data)], ws.f32.probs[s].Data)
				} else {
					copy(dst, ws.probs[s].Data)
				}
				off += ws.rows * spec.Classes
			}
		}
	}
	return probs
}

// emitStep emits one step's barrier-free task graph over wss: per mini-batch
// the forward and backward graphs, then the cross-mini-batch gradient
// reduction; or the forward-only graph at the engine's inference dtype.
func (e *Engine) emitStep(train bool, wss []*workspace) {
	for i, ws := range wss {
		if !train {
			e.emitInfer(ws, i)
			continue
		}
		e.emitForward(ws, i)
		e.emitBackward(ws, i)
	}
	if train {
		e.emitReduce(wss)
	}
}

// WorkingSetBytes reports a training step's activation/gradient working set
// across all mini-batch workspaces for sequence length T (the memory study),
// without building their training half.
func (e *Engine) WorkingSetBytes(T int) int64 {
	var total int64
	for _, ws := range e.workspaces(T) {
		total += ws.workingSetBytes()
	}
	return total
}

// sliceRows returns the mini-batch view of rows [lo, hi).
func (b *Batch) sliceRows(lo, hi int) *Batch {
	mb := &Batch{X: make([]*tensor.Matrix, len(b.X))}
	for t := range b.X {
		mb.X[t] = b.X[t].SliceRows(lo, hi)
	}
	if b.Targets != nil {
		mb.Targets = b.Targets[lo:hi]
	}
	if b.StepTargets != nil {
		mb.StepTargets = make([][]int, len(b.StepTargets))
		for t := range b.StepTargets {
			mb.StepTargets[t] = b.StepTargets[t][lo:hi]
		}
	}
	if b.Lens != nil {
		mb.Lens = b.Lens[lo:hi]
	}
	mb.Real = sliceReal(b.Real, lo, hi)
	return mb
}

// sliceReal maps a batch's Real count onto the row slice [lo, hi): 0 (all
// real) stays 0, a positive count clamps to the slice, and a slice left with
// no real rows reports the all-padding sentinel -1.
func sliceReal(real, lo, hi int) int {
	switch {
	case real == 0:
		return 0
	case real < 0 || real <= lo:
		return -1
	case real >= hi:
		return 0
	default:
		return real - lo
	}
}

// applySGD folds mini-batch gradients (already reduced into workspace 0),
// normalizes, optionally clips, and updates the weights — each pass one
// loop over the parameter catalogue and ws.grads beside it.
func (e *Engine) applySGD(ws *workspace, lr, scale float64) {
	e.M.noteWeightUpdate()
	params, grads := e.M.params, ws.grads
	inv := 1.0 / scale
	if e.GradClip > 0 || e.Adam {
		// Normalize in place so clipping and Adam see mean gradients.
		for _, g := range grads {
			g.scale(inv)
		}
		inv = 1
	}
	if e.GradClip > 0 {
		for _, g := range grads {
			g.clip(e.GradClip)
		}
	}
	if e.Adam {
		e.applyAdam(params, grads, lr)
		return
	}
	for i, p := range params {
		p.axpy(-lr*inv, grads[i].wb)
	}
}

// recordHeadLosses refreshes lastHeadLosses: head h's summed slot losses
// across all mini-batch workspaces, divided by the step's loss scale. The
// total step loss is computed separately (workspace-major) so its summation
// order — and therefore its bit pattern — is unchanged from the single-head
// engine.
func (e *Engine) recordHeadLosses(wss []*workspace, T int, scale float64) {
	cfg := e.M.Cfg
	specs := cfg.HeadSpecs()
	if len(e.lastHeadLosses) != len(specs) {
		e.lastHeadLosses = make([]float64, len(specs))
	}
	for h := range specs {
		lo, n := cfg.HeadSlotRange(h, T)
		sum := 0.0
		for _, ws := range wss {
			for s := lo; s < lo+n; s++ {
				sum += ws.losses[s]
			}
		}
		e.lastHeadLosses[h] = sum / scale
	}
}

// HeadLosses returns the per-head mean losses of the most recent labeled
// step, in head declaration order. Nil before the first step. The values sum
// to the step's reported loss (up to summation-order rounding).
func (e *Engine) HeadLosses() []float64 {
	if e.lastHeadLosses == nil {
		return nil
	}
	out := make([]float64, len(e.lastHeadLosses))
	copy(out, e.lastHeadLosses)
	return out
}

// TemplateStats returns the cumulative template-cache lookup counts: hits
// (steps served by replaying a frozen graph) and misses (steps that had to
// capture). Safe to read from any goroutine; the serving layer aggregates it
// across an engine pool to report template hit rate.
func (e *Engine) TemplateStats() (hits, misses int64) {
	return e.tplHitN.Load(), e.tplMissN.Load()
}
