package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// makeBatch builds a deterministic random batch for cfg.
func makeBatch(cfg Config, seed uint64) *Batch {
	r := rng.New(seed)
	b := &Batch{X: make([]*tensor.Matrix, cfg.SeqLen)}
	for t := range b.X {
		b.X[t] = tensor.New(cfg.Batch, cfg.InputSize)
		r.FillUniform(b.X[t].Data, -1, 1)
	}
	if cfg.Arch == ManyToOne {
		b.Targets = make([]int, cfg.Batch)
		for i := range b.Targets {
			b.Targets[i] = r.Intn(cfg.Classes)
		}
	} else {
		// Input-dependent targets (sign of the first feature) keep the
		// task learnable for convergence tests while still exercising
		// arbitrary label plumbing.
		b.StepTargets = make([][]int, cfg.SeqLen)
		for t := range b.StepTargets {
			b.StepTargets[t] = make([]int, cfg.Batch)
			for i := range b.StepTargets[t] {
				if b.X[t].At(i, 0) > 0 {
					b.StepTargets[t][i] = 1 % cfg.Classes
				} else {
					b.StepTargets[t][i] = 0
				}
			}
		}
	}
	return b
}

// trainN runs n training steps on a fresh model with the given executor
// factory and returns the final model and last loss.
func trainN(t *testing.T, cfg Config, mkExec func() taskrt.Executor, n int) (*Model, float64) {
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

func inlineExec() taskrt.Executor { return taskrt.NewInline(nil) }
func parallelExec(workers int, pol taskrt.Policy) func() taskrt.Executor {
	return func() taskrt.Executor {
		return taskrt.New(taskrt.Options{Workers: workers, Policy: pol})
	}
}

func smallCfg(cell CellKind, arch Arch, mbs int) Config {
	return Config{
		Cell: cell, Arch: arch, Merge: MergeSum,
		InputSize: 3, HiddenSize: 4, Layers: 3, SeqLen: 5,
		Batch: 6, Classes: 3, MiniBatches: mbs, Seed: 42,
	}
}

// TestParallelMatchesSequentialBitwise is the paper's central correctness
// claim (Section III): orchestrating BRNN training via task dependencies
// produces no accuracy loss versus sequential execution. We verify the
// strongest form — bitwise identical weights after several steps — for both
// cell kinds, both architectures, both scheduling policies, and with data
// parallelism enabled.
func TestParallelMatchesSequentialBitwise(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		pol  taskrt.Policy
	}{
		{"lstm-m2o", smallCfg(LSTM, ManyToOne, 1), taskrt.BreadthFirst},
		{"gru-m2o", smallCfg(GRU, ManyToOne, 1), taskrt.BreadthFirst},
		{"rnn-m2o", smallCfg(RNN, ManyToOne, 1), taskrt.BreadthFirst},
		{"rnn-m2m-mbs2", smallCfg(RNN, ManyToMany, 2), taskrt.BreadthFirst},
		{"lstm-m2m", smallCfg(LSTM, ManyToMany, 1), taskrt.BreadthFirst},
		{"gru-m2m", smallCfg(GRU, ManyToMany, 1), taskrt.BreadthFirst},
		{"lstm-m2o-mbs3", smallCfg(LSTM, ManyToOne, 3), taskrt.BreadthFirst},
		{"lstm-m2m-mbs2", smallCfg(LSTM, ManyToMany, 2), taskrt.BreadthFirst},
		{"lstm-m2o-locality", smallCfg(LSTM, ManyToOne, 2), taskrt.LocalityAware},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seqM, seqLoss := trainN(t, tc.cfg, inlineExec, 4)
			parM, parLoss := trainN(t, tc.cfg, parallelExec(4, tc.pol), 4)
			if !seqM.WeightsEqual(parM) {
				t.Fatalf("weights diverged: max |diff| = %g", seqM.WeightsMaxAbsDiff(parM))
			}
			if seqLoss != parLoss {
				t.Fatalf("loss diverged: %g vs %g", seqLoss, parLoss)
			}
		})
	}
}

// TestParallelRunsAreDeterministic: two identical parallel runs are bitwise
// identical regardless of scheduling nondeterminism.
func TestParallelRunsAreDeterministic(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m1, _ := trainN(t, cfg, parallelExec(4, taskrt.BreadthFirst), 3)
	m2, _ := trainN(t, cfg, parallelExec(4, taskrt.BreadthFirst), 3)
	if !m1.WeightsEqual(m2) {
		t.Fatal("parallel training is not deterministic")
	}
}

// TestTrainingReducesLoss: a small model fits a fixed batch.
func TestTrainingReducesLoss(t *testing.T) {
	for _, arch := range []Arch{ManyToOne, ManyToMany} {
		cfg := Config{
			Cell: LSTM, Arch: arch, Merge: MergeSum,
			InputSize: 4, HiddenSize: 8, Layers: 2, SeqLen: 4,
			Batch: 8, Classes: 3, MiniBatches: 2, Seed: 3,
		}
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Options{Workers: 4})
		e := NewEngine(m, rt)
		b := makeBatch(cfg, 77)
		first, err := e.TrainStep(b, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for i := 0; i < 200; i++ {
			last, err = e.TrainStep(b, 0.3)
			if err != nil {
				t.Fatal(err)
			}
		}
		rt.Shutdown()
		if !(last < first*0.7) {
			t.Fatalf("%v: loss did not drop: first %g last %g", arch, first, last)
		}
	}
}

// TestInferPredictionsMatchTraining: after overfitting one batch, inference
// predicts the training labels.
func TestInferLearnsBatch(t *testing.T) {
	cfg := Config{
		Cell: GRU, Arch: ManyToOne, Merge: MergeSum,
		InputSize: 4, HiddenSize: 10, Layers: 1, SeqLen: 4,
		Batch: 6, Classes: 3, MiniBatches: 1, Seed: 5,
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, taskrt.NewInline(nil))
	b := makeBatch(cfg, 88)
	for i := 0; i < 150; i++ {
		if _, err := e.TrainStep(b, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	preds, loss, err := e.Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.5 {
		t.Fatalf("loss still %g after overfitting", loss)
	}
	correct := 0
	for i, p := range preds[0] {
		if p == b.Targets[i] {
			correct++
		}
	}
	if correct < 5 {
		t.Fatalf("only %d/6 correct after overfitting", correct)
	}
}

// TestBSeqMatchesBPar: the data-parallel-only baseline computes bitwise the
// same update as B-Par with equal mini-batching, from a fresh model whose
// sub-engines build their training half on the first step.
func TestBSeqMatchesBPar(t *testing.T) {
	for _, arch := range []Arch{ManyToOne, ManyToMany} {
		for _, cell := range []CellKind{LSTM, GRU} {
			cfg := smallCfg(cell, arch, 3)
			parM, parLoss := trainN(t, cfg, parallelExec(4, taskrt.BreadthFirst), 3)

			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt := taskrt.New(taskrt.Options{Workers: 4})
			bs := NewBSeq(m, rt)
			var loss float64
			for i := 0; i < 3; i++ {
				b := makeBatch(cfg, uint64(100+i))
				loss, err = bs.TrainStep(b, 0.05)
				if err != nil {
					t.Fatal(err)
				}
			}
			rt.Shutdown()
			if !m.WeightsEqual(parM) {
				t.Fatalf("%v/%v: BSeq diverged from B-Par: %g", cell, arch, m.WeightsMaxAbsDiff(parM))
			}
			if loss != parLoss {
				t.Fatalf("%v/%v: losses differ: %g vs %g", cell, arch, loss, parLoss)
			}
		}
	}
}

// failExec replays nothing and reports a task failure.
type failExec struct{}

func (failExec) Replay(*taskrt.Template) {}
func (failExec) Wait() error             { return errors.New("mini-batch task failed") }

// TestBSeqReportsSubEngineFailure: a failed task inside one mini-batch's
// sequential sub-engine fails the whole B-Seq step.
func TestBSeqReportsSubEngineFailure(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 3)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2})
	defer rt.Shutdown()
	bs := NewBSeq(m, rt)
	bs.subs[1].Exec = failExec{}
	if _, err := bs.TrainStep(makeBatch(cfg, 100), 0.05); err == nil || !strings.Contains(err.Error(), "mini-batch task failed") {
		t.Fatalf("TrainStep error = %v, want the sub-engine's failure", err)
	}
}

// TestBarrierModeMatchesBPar: per-layer barriers change scheduling only,
// never numerics, on every executor. The barrier step replays a captured
// template whose barrier nodes stand where a Wait between layers would be:
// three per layer forward, one after the heads, three per layer backward.
func TestBarrierModeMatchesBPar(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	parM, parLoss := trainN(t, cfg, parallelExec(4, taskrt.BreadthFirst), 3)
	const steps = 3
	for _, ex := range []struct {
		name string
		mk   func() taskrt.Executor
	}{
		{"w4-bf", parallelExec(4, taskrt.BreadthFirst)},
		{"w2-bf", parallelExec(2, taskrt.BreadthFirst)},
	} {
		t.Run(ex.name, func(t *testing.T) {
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			exec := ex.mk()
			defer exec.(*taskrt.Runtime).Shutdown()
			e := NewEngine(m, exec)
			var loss float64
			for i := 0; i < steps; i++ {
				b := makeBatch(cfg, uint64(100+i))
				loss, err = e.TrainStepBarrier(b, 0.05)
				if err != nil {
					t.Fatal(err)
				}
			}
			if !m.WeightsEqual(parM) {
				t.Fatalf("barrier mode diverged: %g", m.WeightsMaxAbsDiff(parM))
			}
			if loss != parLoss {
				t.Fatalf("losses differ: %g vs %g", loss, parLoss)
			}
			// The ablation runs through the ordinary step epilogue, so it
			// reports per-head losses like TrainStep does.
			if hl := e.HeadLosses(); len(hl) != 1 || hl[0] != loss {
				t.Fatalf("HeadLosses after TrainStepBarrier = %v, want [%g]", hl, loss)
			}
			tpl := e.tpls[tplKey{kind: stepTrainBarrier, T: cfg.SeqLen}]
			if tpl == nil {
				t.Fatal("no cached barrier template")
			}
			barriers := 0
			for i := 0; i < tpl.Len(); i++ {
				if tpl.Task(i).Kind == "barrier" {
					barriers++
				}
			}
			if want := 6*cfg.Layers + 1; barriers != want {
				t.Fatalf("barrier template holds %d barrier nodes, want %d", barriers, want)
			}
			if hits, misses := e.TemplateStats(); hits != steps-1 || misses != 1 {
				t.Fatalf("TemplateStats = %d hits, %d misses; want %d, 1", hits, misses, steps-1)
			}
		})
	}
}

// TestNoReplayRecapturesEveryStep: a NoReplay engine drops the step's cached
// template before each step, so every step is a template miss.
func TestNoReplayRecapturesEveryStep(t *testing.T) {
	cfg := smallCfg(GRU, ManyToOne, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, inlineExec())
	e.NoReplay = true
	const steps = 3
	for i := 0; i < steps; i++ {
		if _, err := e.TrainStep(makeBatch(cfg, uint64(100+i)), 0.05); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := e.TemplateStats(); hits != 0 || misses != steps {
		t.Fatalf("TemplateStats = %d hits, %d misses; want 0, %d", hits, misses, steps)
	}
}

// TestVariableSequenceLength: the graph adapts when T changes between
// batches (Section III-B).
func TestVariableSequenceLength(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 4})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	for i, T := range []int{5, 2, 7, 5, 2} {
		c2 := cfg
		c2.SeqLen = T
		b := makeBatch(c2, uint64(i))
		if _, err := e.TrainStep(b, 0.05); err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
	}
}

// TestBatchValidation: every malformed batch is an error — never a panic in
// mini-batch slicing — from the engine and from the B-Seq baseline alike
// (both validate through Config.checkBatch before touching a row).
func TestBatchValidation(t *testing.T) {
	cfg := multiHeadCfg(LSTM, 2)
	m, _ := NewModel(cfg)
	steppers := []struct {
		name string
		step func(*Batch) (float64, error)
	}{
		{"engine", func(b *Batch) (float64, error) { return NewEngine(m, inlineExec()).TrainStep(b, 0.1) }},
		{"barrier", func(b *Batch) (float64, error) { return NewEngine(m, inlineExec()).TrainStepBarrier(b, 0.1) }},
		{"bseq", func(b *Batch) (float64, error) { return NewBSeq(m, inlineExec()).TrainStep(b, 0.1) }},
	}
	malformed := []struct {
		name   string
		mangle func(b *Batch)
	}{
		{"empty", func(b *Batch) { *b = Batch{} }},
		{"short targets", func(b *Batch) { b.Targets = b.Targets[:2] }},
		{"missing targets", func(b *Batch) { b.Targets = nil }},
		{"short step targets", func(b *Batch) { b.StepTargets = b.StepTargets[:2] }},
		{"short step-target row", func(b *Batch) { b.StepTargets[1] = b.StepTargets[1][:3] }},
		{"short lens", func(b *Batch) { b.Lens = b.Lens[:cfg.Batch-1] }},
		{"lens out of range", func(b *Batch) { b.Lens[0] = cfg.SeqLen + 1 }},
		{"wrong input rows", func(b *Batch) { b.X[0] = tensor.New(cfg.Batch-1, cfg.InputSize) }},
		{"wrong input width", func(b *Batch) { b.X[0] = tensor.New(cfg.Batch, cfg.InputSize+1) }},
		{"real beyond batch", func(b *Batch) { b.Real = cfg.Batch + 1 }},
	}
	for _, st := range steppers {
		if _, err := st.step(makeMultiBatch(cfg, 1, true)); err != nil {
			t.Fatalf("%s: well-formed batch failed: %v", st.name, err)
		}
		for _, mf := range malformed {
			b := makeMultiBatch(cfg, 1, true)
			mf.mangle(b)
			if _, err := st.step(b); err == nil {
				t.Errorf("%s: %s must fail", st.name, mf.name)
			}
		}
	}
}

func TestInferWithoutTargets(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, _ := NewModel(cfg)
	e := NewEngine(m, taskrt.NewInline(nil))
	b := makeBatch(cfg, 9)
	b.Targets = nil
	preds, loss, err := e.Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	if loss != 0 {
		t.Fatalf("loss without targets should be 0, got %g", loss)
	}
	if len(preds) != 1 || len(preds[0]) != cfg.Batch {
		t.Fatalf("bad preds shape")
	}
}

func TestMbBounds(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 4)
	cfg.Batch = 10 // 3,3,2,2
	want := [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for i, w := range want {
		lo, hi := cfg.mbBounds(i)
		if lo != w[0] || hi != w[1] {
			t.Fatalf("mb %d: [%d,%d) want [%d,%d)", i, lo, hi, w[0], w[1])
		}
	}
}

func TestGradClipKeepsTrainingStable(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, _ := NewModel(cfg)
	e := NewEngine(m, taskrt.NewInline(nil))
	e.GradClip = 0.1
	b := makeBatch(cfg, 12)
	for i := 0; i < 10; i++ {
		loss, err := e.TrainStep(b, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatal("loss exploded despite clipping")
		}
	}
}

func TestWorkingSetBytesPositive(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, _ := NewModel(cfg)
	r := NewEngine(m, taskrt.NewInline(nil)).WorkingSetBytes(cfg.SeqLen)
	if r <= 0 {
		t.Fatal("working sets must be positive")
	}
	// A training step of an f32-inference engine holds its float32 forward
	// buffers next to the float64 ones it builds, and the study must see both
	// before the engine has trained.
	f32 := NewEngine(m, taskrt.NewInline(nil))
	f32.InferDType = tensor.F32
	if got := f32.WorkingSetBytes(cfg.SeqLen); got <= r || got >= 2*r {
		t.Fatalf("f32 engine reports %d bytes, want more than the f64 engine's %d and less than twice it", got, r)
	}
}

// TestGRUStateBytesCountEveryBuffer: a GRU cell state's working set is the
// buffers its kernels cache — z/r gates (2H), candidate, r⊙hPrev and output
// (H each) — r⊙hPrev included.
func TestGRUStateBytesCountEveryBuffer(t *testing.T) {
	m, err := NewModel(smallCfg(GRU, ManyToOne, 1))
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3
	H := m.Cfg.HiddenSize
	for _, p := range []*dirParams{m.dir[fwdDir][0], m.dir[fwdDir][1]} {
		if got, want := newCellSt[float64](p, rows).workingSetBytes(), int64(8*rows*(2*H+H+H+H)); got != want {
			t.Fatalf("GRU state holds %d bytes, want %d", got, want)
		}
	}
}

func TestInferProbsMatchesInfer(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, _ := NewModel(cfg)
	e := NewEngine(m, taskrt.NewInline(nil))
	b := makeBatch(cfg, 33)
	preds, lossA, err := e.Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	probs, lossB, err := e.InferProbs(b)
	if err != nil {
		t.Fatal(err)
	}
	if lossA != lossB {
		t.Fatalf("losses differ: %g vs %g", lossA, lossB)
	}
	if len(probs) != 1 || probs[0].Rows != cfg.Batch || probs[0].Cols != cfg.Classes {
		t.Fatalf("bad probs shape")
	}
	am := tensor.ArgmaxRows(probs[0])
	for i := range am {
		if am[i] != preds[0][i] {
			t.Fatalf("argmax of probs disagrees with Infer at row %d", i)
		}
	}
	// Rows are distributions.
	for i := 0; i < probs[0].Rows; i++ {
		sum := 0.0
		for _, v := range probs[0].Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestWithBatchSharesWeights(t *testing.T) {
	cfg := smallCfg(GRU, ManyToOne, 2)
	m, _ := NewModel(cfg)
	one, err := m.WithBatch(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !one.WeightsEqual(m) {
		t.Fatal("views must share weights")
	}
	// Training through the original updates the view too (shared storage).
	e := NewEngine(m, taskrt.NewInline(nil))
	if _, err := e.TrainStep(makeBatch(cfg, 2), 0.1); err != nil {
		t.Fatal(err)
	}
	if !one.WeightsEqual(m) {
		t.Fatal("views must observe weight updates")
	}
	// Batch-1 inference works through the view.
	c1 := cfg
	c1.Batch, c1.MiniBatches = 1, 1
	b := makeBatch(c1, 3)
	e1 := NewEngine(one, taskrt.NewInline(nil))
	if _, _, err := e1.Infer(b); err != nil {
		t.Fatal(err)
	}
	// Invalid views are rejected.
	if _, err := m.WithBatch(0, 1); err == nil {
		t.Fatal("batch 0 must fail")
	}
	if _, err := m.WithBatch(2, 5); err == nil {
		t.Fatal("mbs > batch must fail")
	}
}

// TestIgnoreLabelGradients: within-batch variable-length sequences mask
// padded timesteps with tensor.IgnoreLabel; the masked loss still gradient-
// checks end to end against the reference, and masked slots carry no
// gradient.
func TestIgnoreLabelGradients(t *testing.T) {
	cfg := Config{
		Cell: LSTM, Arch: ManyToMany, Merge: MergeSum,
		InputSize: 2, HiddenSize: 3, Layers: 2, SeqLen: 4,
		Batch: 2, Classes: 3, MiniBatches: 1, Seed: 19,
	}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := makeBatch(cfg, 31)
	// Sequence 1 "ends" after two steps: mask its tail labels.
	b.StepTargets[2][1] = tensor.IgnoreLabel
	b.StepTargets[3][1] = tensor.IgnoreLabel
	checkGradients(t, "masked-m2m", m, b)
}

// TestIgnoreLabelMatchesManualMask: masking a row's label produces exactly
// the gradients of a loss that never saw that row.
func TestIgnoreLabelLossDropsMaskedRows(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToMany, 1)
	m, _ := NewModel(cfg)
	e := NewEngine(m, taskrt.NewInline(nil))
	b := makeBatch(cfg, 41)
	_, full, err := e.Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := range b.StepTargets {
		b.StepTargets[t0][0] = tensor.IgnoreLabel
	}
	_, masked, err := e.Infer(b)
	if err != nil {
		t.Fatal(err)
	}
	if masked >= full && full > 0 {
		// Not guaranteed ordering in general, but dropping an entire
		// sequence from the summed loss must reduce it here.
		t.Fatalf("masked loss %g not below full %g", masked, full)
	}
}

// TestWorkspaceCacheLRU checks the per-sequence-length workspace cache is
// bounded with least-recently-used eviction, and that touching a length
// refreshes its recency.
func TestWorkspaceCacheLRU(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, _ := NewModel(cfg)
	e := NewEngine(m, inlineExec())
	e.MaxCachedSeqLens = 3

	for _, T := range []int{2, 3, 4} {
		e.workspaces(T)
	}
	e.workspaces(2)        // refresh T=2: LRU order is now 2, 4, 3
	ws5 := e.workspaces(5) // evicts T=3
	if _, ok := e.wsByT[3]; ok {
		t.Fatal("T=3 not evicted")
	}
	for _, T := range []int{2, 4, 5} {
		if _, ok := e.wsByT[T]; !ok {
			t.Fatalf("T=%d evicted, want kept", T)
		}
	}
	if len(e.wsByT) != 3 || len(e.wsLRU) != 3 {
		t.Fatalf("cache size %d, lru %d, want 3", len(e.wsByT), len(e.wsLRU))
	}
	if got := e.workspaces(5); got[0] != ws5[0] {
		t.Fatal("cached workspaces not returned")
	}

	// Default bound applies when the field is zero.
	e2 := NewEngine(m, inlineExec())
	for T := 1; T <= 20; T++ {
		e2.workspaces(T)
	}
	if len(e2.wsByT) != defaultMaxCachedSeqLens {
		t.Fatalf("default cache holds %d lengths, want %d", len(e2.wsByT), defaultMaxCachedSeqLens)
	}
}
