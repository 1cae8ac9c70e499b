package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bpar/internal/rng"
	"bpar/internal/tensor"
)

// The paper-equation reference: Equations 1–11, the three head kinds and Lens
// masking, transcribed as plain float64 loops over one batch row at a time —
// no tasks, no workspaces, no tensor kernels. It shares nothing with the
// engine but the weights it reads (Model.dir through wParams, Model.Heads),
// so a mistake the scheduled kernels make in gate order, merge arithmetic or
// a masked row's boundaries shows up as a disagreement here. Gradients are
// checked against central differences of the reference loss, so the
// reference needs no hand-derived backward.

// refOut is one reference pass over a batch.
type refOut struct {
	probs [][][]float64 // [slot][row] class probabilities; nil where the row is not computed or the frame is past its length
	loss  float64       // summed cross-entropy over the counted rows, divided by their frame count
}

// refRun evaluates the model on rows [0, rows) of b — every row for a
// training step, the real rows for a forward-only one — each at its own
// length Lens[i] (T when Lens is nil).
func refRun(m *Model, b *Batch, rows int) refOut {
	cfg, T := m.Cfg, b.SeqLen()
	out := refOut{probs: make([][][]float64, cfg.HeadSlots(T))}
	for s := range out.probs {
		out.probs[s] = make([][]float64, cfg.Batch)
	}
	sum, frames := 0.0, 0
	for i := 0; i < rows; i++ {
		n := T
		if b.Lens != nil {
			n = b.Lens[i]
		}
		top, final := refTrunk(m, b, i, n)
		perFrame := false
		for h, spec := range cfg.HeadSpecs() {
			lo, _ := cfg.HeadSlotRange(h, T)
			if !spec.Kind.PerFrame() {
				p := refHead(m.Heads[h], final)
				out.probs[lo][i] = p
				if b.Targets != nil {
					sum += refNLL(p, b.Targets[i])
				}
				continue
			}
			perFrame = true
			for t := 0; t < n; t++ {
				p := refHead(m.Heads[h], top[t])
				out.probs[lo+t][i] = p
				if b.StepTargets != nil {
					sum += refNLL(p, refLabel(spec.Kind, b, t, i))
				}
			}
		}
		// The loss is a mean per sequence, or per real frame when any head
		// emits one output per frame.
		if perFrame {
			frames += n
		} else {
			frames++
		}
	}
	out.loss = sum / float64(max(frames, 1))
	return out
}

// refTrunk runs row i's first n timesteps through every layer: the forward
// chain over t = 0..n-1 and the reverse chain over t = n-1..0, each from the
// zero state — so a masked row's reverse chain restarts at Lens[i]-1 — merged
// per timestep by Equation 11. It returns the top layer's merged outputs and
// the final merge of the forward state at n-1 with the reverse state at 0.
func refTrunk(m *Model, b *Batch, i, n int) (top [][]float64, final []float64) {
	in := make([][]float64, n)
	for t := range in {
		in[t] = b.X[t].Row(i)
	}
	var hf, hr [][]float64
	for l := 0; l < m.Cfg.Layers; l++ {
		hf = refChain(m.dir[fwdDir][l], in, false)
		hr = refChain(m.dir[revDir][l], in, true)
		for t := range in {
			in[t] = refMerge(m.Cfg.Merge, hf[t], hr[t])
		}
	}
	return in, refMerge(m.Cfg.Merge, hf[n-1], hr[0])
}

// refChain runs one direction's recurrence over xs from the zero state: t
// ascending (Algorithm 2) or descending (Algorithm 3). It returns H_t per
// timestep.
func refChain(p *dirParams, xs [][]float64, rev bool) [][]float64 {
	W, B := p.wParams()
	hid := W.Cols - len(xs[0])
	h, c := make([]float64, hid), make([]float64, hid)
	hs := make([][]float64, len(xs))
	for u := range xs {
		t := u
		if rev {
			t = len(xs) - 1 - u
		}
		h, c = refCell(p.kind, W, B, xs[t], h, c)
		hs[t] = h
	}
	return hs
}

// refCell is one cell update on one row: Equations 1–6 (LSTM), 7–10 (GRU) or
// the Elman update h = tanh(W·[x, hPrev] + b). W's columns span [x, hPrev];
// its row blocks are the gates f, i, c̄, o (LSTM) and z, r, h̄ (GRU).
func refCell(kind CellKind, W *tensor.Matrix, B, x, hPrev, cPrev []float64) (h, c []float64) {
	hid := len(hPrev)
	// affine is B[r] + W[r]·[x, v] for weight row r.
	affine := func(r int, v []float64) float64 {
		row := W.Row(r)
		s := B[r]
		for j, xj := range x {
			s += row[j] * xj
		}
		for j, vj := range v {
			s += row[len(x)+j] * vj
		}
		return s
	}
	h, c = make([]float64, hid), make([]float64, hid)
	switch kind {
	case LSTM:
		for j := range h {
			f := refSigm(affine(j, hPrev))            // Equation 1
			in := refSigm(affine(hid+j, hPrev))       // Equation 2
			cBar := math.Tanh(affine(2*hid+j, hPrev)) // Equation 3
			o := refSigm(affine(3*hid+j, hPrev))      // Equation 4
			c[j] = f*cPrev[j] + in*cBar               // Equation 5
			h[j] = o * math.Tanh(c[j])                // Equation 6
		}
	case GRU:
		z, rh := make([]float64, hid), make([]float64, hid)
		for j := range h {
			z[j] = refSigm(affine(j, hPrev))                 // Equation 7
			rh[j] = refSigm(affine(hid+j, hPrev)) * hPrev[j] // Equation 8, applied to hPrev
		}
		for j := range h {
			hBar := math.Tanh(affine(2*hid+j, rh)) // Equation 9
			h[j] = z[j]*hBar + (1-z[j])*hPrev[j]   // Equation 10
		}
	default:
		for j := range h {
			h[j] = math.Tanh(affine(j, hPrev))
		}
	}
	return h, c
}

func refSigm(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// refMerge is Equation 11.
func refMerge(op MergeOp, a, b []float64) []float64 {
	if op == MergeConcat {
		return append(slices.Clone(a), b...)
	}
	out := make([]float64, len(a))
	for j := range a {
		switch op {
		case MergeSum:
			out[j] = a[j] + b[j]
		case MergeAvg:
			out[j] = (a[j] + b[j]) / 2
		case MergeMul:
			out[j] = a[j] * b[j]
		}
	}
	return out
}

// refHead is one output head on one row: softmax(W·x + B).
func refHead(hd Head, x []float64) []float64 {
	p := make([]float64, hd.Classes)
	top := math.Inf(-1)
	for k := range p {
		p[k] = hd.B[k]
		for j, v := range x {
			p[k] += hd.W.Row(k)[j] * v
		}
		top = max(top, p[k])
	}
	sum := 0.0
	for k := range p {
		p[k] = math.Exp(p[k] - top)
		sum += p[k]
	}
	for k := range p {
		p[k] /= sum
	}
	return p
}

// refNLL is one row's cross-entropy, with the engine's 1e-12 guard inside the
// log; IgnoreLabel costs nothing.
func refNLL(p []float64, label int) float64 {
	if label == tensor.IgnoreLabel {
		return 0
	}
	return -math.Log(p[label] + 1e-12)
}

// refLabel is the label a per-frame head trains on at frame t of row i: the
// frame's own step target for tagging, the next frame's for generation (none
// after the last frame).
func refLabel(kind HeadKind, b *Batch, t, i int) int {
	if kind == HeadGenerate {
		if t+1 >= b.SeqLen() {
			return tensor.IgnoreLabel
		}
		t++
	}
	return b.StepTargets[t][i]
}

// refHeads are the head layouts the reference suites sweep.
var refHeads = []string{"m2o", "m2m", "multi"}

// refCfg is the suites' tiny model: In ≠ H so a swapped column window
// misreads, two layers so merges feed cells, and five rows so MiniBatches 2
// splits them 3 + 2.
func refCfg(cell CellKind, heads string, merge MergeOp, mbs int) Config {
	cfg := Config{
		Cell: cell, Arch: ManyToOne, Merge: merge,
		InputSize: 3, HiddenSize: 2, Layers: 2, SeqLen: 3,
		Batch: 5, Classes: 3, MiniBatches: mbs, Seed: 17,
	}
	switch heads {
	case "m2m":
		cfg.Arch = ManyToMany
	case "multi":
		cfg.Arch = ManyToMany
		cfg.Heads = []HeadSpec{{Kind: HeadClassify, Classes: 3}, {Kind: HeadTag, Classes: 2}, {Kind: HeadGenerate, Classes: 3}}
	}
	return cfg
}

// refLens gives rows 0–2 (micro-batch 0 at MiniBatches 2) a longest length
// below T, so the engine's skip past max(Lens) runs, and spans the lengths 1
// (the reverse chain starts at t = 0) through T.
var refLens = []int{2, 1, 2, 3, 1}

// refBatch builds a labelled batch for cfg. Masked rows get IgnoreLabel step
// targets past their length and random, nonzero inputs there: padding that
// must reach no real output.
func refBatch(cfg Config, seed uint64, masked bool) *Batch {
	r := rng.New(seed)
	b := &Batch{Targets: make([]int, cfg.Batch)}
	for t := 0; t < cfg.SeqLen; t++ {
		x := tensor.New(cfg.Batch, cfg.InputSize)
		r.FillUniform(x.Data, -1, 1)
		b.X = append(b.X, x)
		row := make([]int, cfg.Batch)
		for i := range row {
			row[i] = r.Intn(2)
			if masked && t >= refLens[i] {
				row[i] = tensor.IgnoreLabel
			}
		}
		b.StepTargets = append(b.StepTargets, row)
	}
	for i := range b.Targets {
		b.Targets[i] = r.Intn(3)
	}
	if masked {
		b.Lens = slices.Clone(refLens)
	}
	return b
}

// refSweep runs fn once per (cell, head layout, merge op), as a subtest.
func refSweep(t *testing.T, fn func(t *testing.T, cell CellKind, heads string, merge MergeOp)) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, heads := range refHeads {
			for _, merge := range []MergeOp{MergeSum, MergeAvg, MergeMul, MergeConcat} {
				t.Run(fmt.Sprintf("%v/%s/%v", cell, heads, merge), func(t *testing.T) {
					fn(t, cell, heads, merge)
				})
			}
		}
	}
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// TestInferMatchesReference holds production InferProbs to the reference on
// every live slot of every real row — within 1e-10 relative at float64 and
// f32ProbTol at float32, loss included — over masked and full-length rows,
// full and partial batches, MiniBatches 1 and 2, and cached and freshly
// captured graphs. Padding rows must read exactly 0.
func TestInferMatchesReference(t *testing.T) {
	refSweep(t, func(t *testing.T, cell CellKind, heads string, merge MergeOp) {
		for _, masked := range []bool{false, true} {
			for _, real := range []int{0, 2} {
				b := refBatch(refCfg(cell, heads, merge, 1), 5, masked)
				b.Real = real
				for _, mbs := range []int{1, 2} {
					cfg := refCfg(cell, heads, merge, mbs)
					m, err := NewModel(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rows := b.realRows(0, cfg.Batch)
					want := refRun(m, b, rows)
					for _, noReplay := range []bool{false, true} {
						for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
							name := fmt.Sprintf("masked=%v Real=%d mbs=%d noReplay=%v %v", masked, real, mbs, noReplay, dt)
							e := NewEngine(m, inlineExec())
							e.NoReplay, e.InferDType = noReplay, dt
							probs, loss, err := e.InferProbs(b)
							if err != nil {
								t.Fatal(err)
							}
							checkAgainstRef(t, name, dt, probs, loss, want, rows)
						}
					}
				}
			}
		}
	})
}

// checkAgainstRef compares one InferProbs result with the reference.
func checkAgainstRef(t *testing.T, name string, dt tensor.DType, probs []*tensor.Matrix, loss float64, want refOut, rows int) {
	t.Helper()
	close := func(got, ref float64) bool {
		if dt == tensor.F32 {
			return math.Abs(got-ref) <= f32ProbTol
		}
		return relDiff(got, ref) <= 1e-10
	}
	for s, slot := range want.probs {
		for i, p := range slot {
			got := probs[s].Row(i)
			if i >= rows {
				if slices.ContainsFunc(got, func(v float64) bool { return v != 0 }) {
					t.Fatalf("%s: slot %d padding row %d reads %v, want 0", name, s, i, got)
				}
				continue
			}
			for k, ref := range p {
				if !close(got[k], ref) {
					t.Fatalf("%s: slot %d row %d class %d: %.17g, reference %.17g", name, s, i, k, got[k], ref)
				}
			}
		}
	}
	lossOK := relDiff(loss, want.loss) <= 1e-10
	if dt == tensor.F32 {
		lossOK = math.Abs(loss-want.loss) <= f32ProbTol*max(1, want.loss)
	}
	if !lossOK {
		t.Fatalf("%s: loss %.17g, reference %.17g", name, loss, want.loss)
	}
}

// TestEndToEndGradientCheck holds the whole assembled network's training
// gradients — cells, merges, heads, masking, the BPTT wiring and the
// micro-batch reduction — to central differences of the reference loss, over
// masked and full-length rows and MiniBatches 1 and 2.
func TestEndToEndGradientCheck(t *testing.T) {
	refSweep(t, func(t *testing.T, cell CellKind, heads string, merge MergeOp) {
		for _, masked := range []bool{false, true} {
			for _, mbs := range []int{1, 2} {
				cfg := refCfg(cell, heads, merge, mbs)
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkGradients(t, fmt.Sprintf("masked=%v mbs=%d", masked, mbs), m, refBatch(cfg, 9, masked))
			}
		}
	})
}

// checkGradients checks every element of every parameter's training gradient
// — TrainStep(b, 0) leaves the summed gradients in the first workspace,
// reduced across micro-batches — against the central difference of the
// reference's mean loss (|Δ| ≤ 1e-6 + 1e-5·|g|), and the step's own loss
// against the reference's within 1e-10 relative.
func checkGradients(t *testing.T, name string, m *Model, b *Batch) {
	t.Helper()
	const h = 1e-6
	cfg := m.Cfg
	e := NewEngine(m, inlineExec())
	loss, err := e.TrainStep(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := refRun(m, b, cfg.Batch).loss; relDiff(loss, want) > 1e-10 {
		t.Fatalf("%s: loss %.17g, reference %.17g", name, loss, want)
	}
	ws := e.workspaces(b.SeqLen())[0]
	scale := cfg.lossScale(b, cfg.Batch)
	for pi, p := range m.params {
		g := ws.grads[pi]
		for _, part := range []struct {
			name string
			w, g []float64
		}{{"W", p.W.Data, g.W.Data}, {"B", p.B, g.B}} {
			for k, orig := range part.w {
				part.w[k] = orig + h
				lp := refRun(m, b, cfg.Batch).loss
				part.w[k] = orig - h
				lm := refRun(m, b, cfg.Batch).loss
				part.w[k] = orig
				fd, got := (lp-lm)/(2*h), part.g[k]/scale
				if math.Abs(got-fd) > 1e-6+1e-5*math.Abs(got) {
					t.Fatalf("%s: %s %s[%d]: gradient %.10g, reference finite difference %.10g", name, p.name, part.name, k, got, fd)
				}
			}
		}
	}
}
