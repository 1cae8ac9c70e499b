package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bpar/internal/cell"
	"bpar/internal/core"
	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// Direct-call probes: each layer's public functions timed from outside, on
// one goroutine, at the workload's own shapes, so a probe and the same
// kernel's share of the workload's trace are comparable.

// tileT is the timestep tile of the engine's projection and dx tasks
// (core's unexported projTileT).
const tileT = 8

// probeBudget is how long the interleaved probes measure, all together.
const probeBudget = 2 * time.Second

// shape is what the kernels of one workload see.
type shape struct {
	m, in, h, gates int // rows per mini-batch workspace, layer input width, hidden width, gates per cell
	t, layers, mbs  int
	in0             int // layer 0's input width
	gru, f32, train bool
}

func shapeOf(w *workload) shape {
	c := w.cfg
	s := shape{
		m: c.Batch / c.MiniBatches, h: c.HiddenSize, gates: 4,
		t: c.SeqLen, layers: c.Layers, mbs: c.MiniBatches,
		in0: c.InputSize, in: c.InputSize,
		gru: c.Cell == core.GRU, f32: w.inferDType == tensor.F32, train: !w.serve,
	}
	if c.Layers > 1 {
		s.in = c.LayerInputSize(1) // all layers but the first
	}
	if s.gru {
		s.gates = 3
	}
	return s
}

func (s shape) gw() int { return s.gates * s.h }

// pool is how many weight sets a probe rotates through: the engine touches
// every (layer, direction)'s weights between two uses of the same one, so a
// probe looping on a single matrix would find it in a cache the workload
// never finds it in.
func (s shape) pool() int { return 2 * s.layers }

// probe is one timed function. fn receives a running call index to rotate
// pooled operands with.
type probe struct {
	pool  int // operand sets fn rotates through
	fn    func(i int)
	inner int       // calls per timed batch
	call  int       // next call index
	per   []float64 // ns per call, one entry per batch
}

// prober times a set of probes in interleaved batches: round after round,
// one batch of each. Every probe's samples are then spread over the same
// seconds, so a host that runs fast for one second and slow the next slows
// all of them alike and their ratios (a kernel's share of a task, a rate
// against the roofline) hold, which back-to-back probes of a tenth of a
// second each do not give.
type prober struct {
	names  []string
	probes map[string]*probe
}

func (p *prober) add(name string, pool int, fn func(i int)) {
	if p.probes == nil {
		p.probes = make(map[string]*probe)
	}
	p.names = append(p.names, name)
	p.probes[name] = &probe{pool: pool, fn: fn}
}

// run measures for about budget, and at least three rounds. One untimed pass
// through each probe's pool comes first, so no timed call is the first touch
// of freshly allocated pages; calls are timed in batches of about a
// millisecond so the clock read does not count.
func (p *prober) run(budget time.Duration) {
	for _, name := range p.names {
		pb := p.probes[name]
		for i := 0; i < pb.pool; i++ {
			pb.fn(i)
		}
		t0 := time.Now()
		pb.fn(0)
		pb.inner = int(time.Millisecond/(time.Since(t0)+1)) + 1
	}
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < budget; round++ {
		for _, name := range p.names {
			pb := p.probes[name]
			t := time.Now()
			for k := 0; k < pb.inner; k++ {
				pb.fn(pb.call)
				pb.call++
			}
			pb.per = append(pb.per, float64(time.Since(t))/float64(pb.inner))
		}
	}
}

// ns is the median nanoseconds per call of a probe that ran.
func (p *prober) ns(name string) float64 { return median(p.probes[name].per) }

func randMat[E tensor.Elt](r *rng.RNG, rows, cols int) *tensor.Mat[E] {
	m := tensor.NewOf[E](rows, cols)
	for i := range m.Data {
		m.Data[i] = E(r.Uniform(-0.1, 0.1))
	}
	return m
}

func randMats[E tensor.Elt](r *rng.RNG, n, rows, cols int) []*tensor.Mat[E] {
	out := make([]*tensor.Mat[E], n)
	for i := range out {
		out[i] = randMat[E](r, rows, cols)
	}
	return out
}

// probeLayers runs the tensor, cell and taskrt probes and the host roofline
// for w's shapes and writes their metrics.
func probeLayers(w *workload, m metrics) {
	s := shapeOf(w)
	r := rng.New(1)
	pr := &prober{}
	var weights []*tensor.Matrix // the fused W of every pooled weight set
	if s.gru {
		weights = gruProbes(pr, s, r)
	} else {
		weights = lstmProbes(pr, s, r)
	}
	tensorProbes(pr, s, r, weights)
	stopTaskrt := taskrtProbes(pr)
	pr.add("roof.peak_f64", 1, peakFlops[float64])
	pr.add("roof.peak_f32", 1, peakFlops[float32])
	pr.run(probeBudget)
	stopTaskrt()

	gflops := func(flops float64, name string) float64 { return flops / pr.ns(name) }
	m.set("tensor.chain_gflops", gflops(s.chainFlops(), "tensor.chain"), "GFLOP/s")
	m.set("tensor.chain_packed_gflops", gflops(s.chainFlops(), "tensor.chain_packed"), "GFLOP/s")
	m.set("tensor.proj_gflops", gflops(s.projFlops(), "tensor.proj"), "GFLOP/s")
	m.set("tensor.chain_flops_per_byte", s.chainFlops()/s.chainBytes(), "flop/B")
	m.set("cell.pregates_ns", pr.ns("cell.pregates"), "ns")
	m.set("cell.fwd_pre_ns", pr.ns("cell.fwd"), "ns")
	chain := "tensor.chain"
	if s.f32 {
		chain = "tensor.chain_packed"
	}
	m.set("cell.fwd_elementwise_frac", 1-pr.ns(chain)/pr.ns("cell.fwd"), "share")
	if s.train {
		m.set("tensor.dx_gflops", gflops(s.projFlops(), "tensor.dx"), "GFLOP/s")
		m.set("tensor.dw_gflops", gflops(s.dwFlops(), "tensor.dw"), "GFLOP/s")
		m.set("cell.bwd_pre_ns", pr.ns("cell.bwd"), "ns")
		m.set("cell.dw_batch_ns", pr.ns("cell.dw"), "ns")
	}
	const nodes = 4 * taskrtDiamonds
	m.set("taskrt.submit_ns_per_node", pr.ns("taskrt.submit")/nodes, "ns")
	m.set("taskrt.capture_freeze_us_per_node", pr.ns("taskrt.freeze")/nodes/1e3, "us")
	m.set("taskrt.replay_ns_per_node", pr.ns("taskrt.replay")/nodes, "ns")
	m.set("tensor.roof_peak_gflops_f64", peakFlopsPerCall/pr.ns("roof.peak_f64"), "GFLOP/s")
	m.set("tensor.roof_peak_gflops_f32", peakFlopsPerCall/pr.ns("roof.peak_f32"), "GFLOP/s")
	probeStream(s, m)
}

// Flops of one call of each probed kernel (a GFLOP/s value is flops ÷ ns).
func (s shape) chainFlops() float64 { return 2 * float64(s.m*s.h*s.gw()) }
func (s shape) projFlops() float64  { return tileT * 2 * float64(s.m*s.in*s.gw()) }
func (s shape) dwFlops() float64    { return 2 * float64(s.gw()*s.t*s.m*s.in) }

// Computed bytes one call moves: weights once, operands once, destination
// read and written. Computed from sizes, not measured: cache misses are not
// in it.
func (s shape) chainBytes() float64 {
	return 8 * float64(s.gw()*s.h+s.m*s.h+2*s.m*s.gw())
}
func (s shape) projBytes() float64 {
	return 8 * float64(s.gw()*s.in+tileT*(s.m*s.in+2*s.m*s.gw()))
}
func (s shape) dwBytes() float64 {
	k := s.t * s.m
	return 8 * float64(s.gw()*k+s.in*k+2*s.gw()*s.in)
}

// tensorProbes registers the GEMM families the workload's tasks call.
func tensorProbes(pr *prober, s shape, r *rng.RNG, ws []*tensor.Matrix) {
	gw, n := s.gw(), len(ws)
	a, dst := randMat[float64](r, s.m, s.h), tensor.New(s.m, gw)
	pr.add("tensor.chain", n, func(i int) { tensor.GemmTAccCols(dst, a, ws[i%n], s.in) })

	xs, pres := randMats[float64](r, tileT, s.m, s.in), randMats[float64](r, tileT, s.m, gw)
	if s.f32 {
		// The f32 inference path runs both the chain and the projection on
		// packed float32 panels.
		chainPacked[float32](pr, s, r, ws)
		ws32 := make([]*tensor.PackedPanel[float32], n)
		for i, w := range ws {
			ws32[i] = tensor.NewPackedPanel(tensor.ConvertedOf[float32](w), 0, s.in)
		}
		xs32, pres32 := randMats[float32](r, tileT, s.m, s.in), randMats[float32](r, tileT, s.m, gw)
		pr.add("tensor.proj", n, func(i int) { tensor.GemmTAccColsPackedBatch(pres32, xs32, ws32[i%n]) })
	} else {
		chainPacked[float64](pr, s, r, ws)
		pr.add("tensor.proj", n, func(i int) { tensor.GemmTAccColsBatch(pres, xs, ws[i%n], 0) })
	}
	if !s.train {
		return
	}
	// dx: dMerged_t += dGates_t · Wx over a timestep tile.
	pr.add("tensor.dx", n, func(i int) { tensor.GemmAccColsBatch(xs, pres, 0, gw, ws[i%n], 0) })
	// dw: the dot-form GEMM cell.*DWBatch runs over the transposed stacks of
	// the whole sequence (GemmATAccColsBatch is no longer on the engine path).
	k := s.t * s.m
	stackP, xT := randMat[float64](r, gw, k), randMat[float64](r, s.in, k)
	dws := make([]*tensor.Matrix, n)
	for i := range dws {
		dws[i] = tensor.New(gw, s.in+s.h)
	}
	pr.add("tensor.dw", n, func(i int) { tensor.GemmTAccDstCols(dws[i%n], 0, stackP, xT) })
}

// chainPacked registers the recurrent GEMM on packed panels at element type E.
func chainPacked[E tensor.Elt](pr *prober, s shape, r *rng.RNG, ws []*tensor.Matrix) {
	pps := make([]*tensor.PackedPanel[E], len(ws))
	for i, w := range ws {
		pps[i] = tensor.NewPackedPanel(tensor.ConvertedOf[E](w), s.in, s.h)
	}
	a, dst := randMat[E](r, s.m, s.h), tensor.NewOf[E](s.m, s.gw())
	pr.add("tensor.chain_packed", len(pps), func(i int) { tensor.GemmTAccColsPacked(dst, a, pps[i%len(pps)]) })
}

// lstmProbes registers the workload's cell kernels over pooled weights (the
// backward ones on train workloads only) and returns the fused weights.
func lstmProbes(pr *prober, s shape, r *rng.RNG) []*tensor.Matrix {
	n := s.pool()
	ws := make([]*cell.LSTMWeights, n)
	fused := make([]*tensor.Matrix, n)
	for i := range ws {
		ws[i] = cell.NewLSTMWeights(s.in, s.h)
		ws[i].Init(r)
		fused[i] = ws[i].W
	}
	if s.f32 {
		ws32 := make([]*cell.LSTMWeightsOf[float32], n)
		for i, w := range ws {
			ws32[i] = cell.ConvertLSTMWeights[float32](w)
		}
		lstmForward(pr, s, r, ws32, true)
	} else {
		lstmForward(pr, s, r, ws, false)
	}
	if !s.train {
		return fused
	}
	hPrev, cPrev := randMat[float64](r, s.m, s.h), randMat[float64](r, s.m, s.h)
	st := cell.NewLSTMState(s.m, s.in, s.h)
	cell.LSTMForwardPre(ws[0], randMat[float64](r, s.m, s.gw()), hPrev, cPrev, st)
	dH, dC := randMat[float64](r, s.m, s.h), randMat[float64](r, s.m, s.h)
	dGates, dHPrev, dCPrev := tensor.New(s.m, s.gw()), tensor.New(s.m, s.h), tensor.New(s.m, s.h)
	grads := make([]*cell.LSTMGrads, n)
	for i, w := range ws {
		grads[i] = cell.NewLSTMGrads(w)
	}
	pr.add("cell.bwd", n, func(i int) {
		cell.LSTMBackwardPre(ws[i%n], st, hPrev, cPrev, dH, dC, dGates, nil, dHPrev, dCPrev, grads[i%n])
	})
	d := newDWOperands(s, r)
	pr.add("cell.dw", n, func(i int) {
		cell.LSTMDWBatch(ws[i%n], grads[i%n], d.panels, d.xs, d.hPrevs, d.stackP, d.stackB)
	})
	return fused
}

func lstmForward[E tensor.Elt](pr *prober, s shape, r *rng.RNG, ws []*cell.LSTMWeightsOf[E], packed bool) {
	n := len(ws)
	x, pre := randMat[E](r, s.m, s.in), randMat[E](r, s.m, s.gw())
	hPrev, cPrev := randMat[E](r, s.m, s.h), randMat[E](r, s.m, s.h)
	st := cell.NewLSTMStateOf[E](s.m, s.in, s.h)
	if !packed {
		pr.add("cell.pregates", n, func(i int) { cell.LSTMPreGates(ws[i%n], x, pre) })
		pr.add("cell.fwd", n, func(i int) { cell.LSTMForwardPre(ws[i%n], pre, hPrev, cPrev, st) })
		return
	}
	packs := make([]*cell.PackSet[E], n)
	for i, w := range ws {
		packs[i] = cell.PackLSTM(w)
	}
	pr.add("cell.pregates", n, func(i int) { cell.LSTMPreGatesPacked(ws[i%n], x, pre, packs[i%n]) })
	pr.add("cell.fwd", n, func(i int) { cell.LSTMForwardPrePacked(ws[i%n], pre, hPrev, cPrev, st, packs[i%n]) })
}

// gruProbes is lstmProbes for the GRU cell.
func gruProbes(pr *prober, s shape, r *rng.RNG) []*tensor.Matrix {
	n := s.pool()
	ws := make([]*cell.GRUWeights, n)
	fused := make([]*tensor.Matrix, n)
	for i := range ws {
		ws[i] = cell.NewGRUWeights(s.in, s.h)
		ws[i].Init(r)
		fused[i] = ws[i].W
	}
	if s.f32 {
		ws32 := make([]*cell.GRUWeightsOf[float32], n)
		for i, w := range ws {
			ws32[i] = cell.ConvertGRUWeights[float32](w)
		}
		gruForward(pr, s, r, ws32, true)
	} else {
		gruForward(pr, s, r, ws, false)
	}
	if !s.train {
		return fused
	}
	hPrev := randMat[float64](r, s.m, s.h)
	st := cell.NewGRUState(s.m, s.in, s.h)
	cell.GRUForwardPre(ws[0], randMat[float64](r, s.m, s.gw()), hPrev, st)
	dH := randMat[float64](r, s.m, s.h)
	dGates, dHPrev := tensor.New(s.m, s.gw()), tensor.New(s.m, s.h)
	grads := make([]*cell.GRUGrads, n)
	for i, w := range ws {
		grads[i] = cell.NewGRUGrads(w)
	}
	pr.add("cell.bwd", n, func(i int) {
		cell.GRUBackwardPre(ws[i%n], st, hPrev, dH, dGates, nil, dHPrev, grads[i%n])
	})
	d := newDWOperands(s, r)
	pr.add("cell.dw", n, func(i int) {
		cell.GRUDWBatch(ws[i%n], grads[i%n], d.panels, d.xs, d.hPrevs, d.hPrevs, d.stackP, d.stackB)
	})
	return fused
}

func gruForward[E tensor.Elt](pr *prober, s shape, r *rng.RNG, ws []*cell.GRUWeightsOf[E], packed bool) {
	n := len(ws)
	x, pre := randMat[E](r, s.m, s.in), randMat[E](r, s.m, s.gw())
	hPrev := randMat[E](r, s.m, s.h)
	st := cell.NewGRUStateOf[E](s.m, s.in, s.h)
	if !packed {
		pr.add("cell.pregates", n, func(i int) { cell.GRUPreGates(ws[i%n], x, pre) })
		pr.add("cell.fwd", n, func(i int) { cell.GRUForwardPre(ws[i%n], pre, hPrev, st) })
		return
	}
	packs := make([]*cell.PackSet[E], n)
	for i, w := range ws {
		packs[i] = cell.PackGRU(w)
	}
	pr.add("cell.pregates", n, func(i int) { cell.GRUPreGatesPacked(ws[i%n], x, pre, packs[i%n]) })
	pr.add("cell.fwd", n, func(i int) { cell.GRUForwardPrePacked(ws[i%n], pre, hPrev, st, packs[i%n]) })
}

// dwOperands are one (layer, direction)'s whole-sequence operands of the
// batched weight-gradient kernel.
type dwOperands struct {
	panels, xs, hPrevs []*tensor.Matrix
	stackP, stackB     *tensor.Matrix
}

func newDWOperands(s shape, r *rng.RNG) dwOperands {
	k := s.t * s.m
	return dwOperands{
		panels: randMats[float64](r, s.t, s.m, s.gw()),
		xs:     randMats[float64](r, s.t, s.m, s.in),
		hPrevs: randMats[float64](r, s.t, s.m, s.h),
		stackP: tensor.New(s.gw(), k),
		stackB: tensor.New(max(s.in, s.h), k),
	}
}

// taskrtDiamonds is the length of the taskrt probe's graph.
const taskrtDiamonds = 1024

// taskrtProbes registers the runtime's costs on a 4096-node chain of
// diamonds with empty bodies: what one node costs to submit through the
// dependency table, to capture and freeze, and to replay. The returned
// function shuts the probe's runtime down.
func taskrtProbes(pr *prober) (stop func()) {
	const n = 4 * taskrtDiamonds
	keys := make([]int, n) // a node's output key is the address of its slot
	noop := func() {}
	tasks := make([]*taskrt.Task, 0, n)
	var prev taskrt.Dep
	for d := 0; d < taskrtDiamonds; d++ {
		top, left, right, bottom := &keys[4*d], &keys[4*d+1], &keys[4*d+2], &keys[4*d+3]
		t := &taskrt.Task{Kind: "probe", Fn: noop, Out: []taskrt.Dep{top}}
		if prev != nil {
			t.In = []taskrt.Dep{prev}
		}
		tasks = append(tasks, t,
			&taskrt.Task{Kind: "probe", Fn: noop, In: []taskrt.Dep{top}, Out: []taskrt.Dep{left}},
			&taskrt.Task{Kind: "probe", Fn: noop, In: []taskrt.Dep{top}, Out: []taskrt.Dep{right}},
			&taskrt.Task{Kind: "probe", Fn: noop, In: []taskrt.Dep{left, right}, Out: []taskrt.Dep{bottom}})
		prev = bottom
	}
	freeze := func() *taskrt.Template {
		c := taskrt.NewCapture()
		c.SubmitAll(tasks)
		return c.Freeze()
	}
	rt := taskrt.New(taskrt.Options{Workers: procs, Policy: taskrt.LocalityAware})
	wait := func() {
		if err := rt.Wait(); err != nil {
			// Empty bodies cannot fail; a runtime that says they did is broken.
			panic(fmt.Sprintf("taskrt probe: %v", err))
		}
	}
	pr.add("taskrt.submit", 1, func(int) {
		rt.SubmitAll(tasks)
		wait()
		rt.ResetDeps()
	})
	pr.add("taskrt.freeze", 1, func(int) { freeze() })
	tpl := freeze()
	pr.add("taskrt.replay", 1, func(int) {
		rt.Replay(tpl)
		wait()
	})
	return rt.Shutdown
}

// Roofline operands the compiler cannot fold.
var (
	roofX, roofY = 0.999999, 1e-6
	roofSink     float64
)

// peakFlopsPerCall is the floating-point work of one peakFlops call.
const (
	peakIters        = 1 << 14
	peakFlopsPerCall = 2 * 12 * peakIters
)

// peakFlops runs twelve independent multiply-add chains at element type E:
// the most floating-point work this host retires from compiled Go (twelve
// accumulators and the two operands fill the sixteen vector registers; fewer
// chains wait on the multiply-add latency instead of the ports), which is
// the ceiling the pure-Go GEMM kernels work under.
func peakFlops[E tensor.Elt](int) {
	x, y := E(roofX), E(roofY)
	a0, a1, a2, a3, a4, a5 := E(1), E(2), E(3), E(4), E(5), E(6)
	a6, a7, a8, a9, a10, a11 := E(7), E(8), E(9), E(10), E(11), E(12)
	for i := 0; i < peakIters; i++ {
		a0 = a0*x + y
		a1 = a1*x + y
		a2 = a2*x + y
		a3 = a3*x + y
		a4 = a4*x + y
		a5 = a5*x + y
		a6 = a6*x + y
		a7 = a7*x + y
		a8 = a8*x + y
		a9 = a9*x + y
		a10 = a10*x + y
		a11 = a11*x + y
	}
	roofSink = float64(a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11)
}

// streamCap bounds the bandwidth probe's array.
const streamCap = 1 << 30

// llcBytes is the largest cache cpu0 reports in sysfs, 0 when unreadable.
func llcBytes() int64 {
	var best int64
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		str := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(str, "K"):
			mult, str = 1<<10, strings.TrimSuffix(str, "K")
		case strings.HasSuffix(str, "M"):
			mult, str = 1<<20, strings.TrimSuffix(str, "M")
		}
		if v, err := strconv.ParseInt(str, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// probeStream measures the host's read bandwidth in this run and places the
// probed kernels under the roofline it makes with the compute peak. The array
// is four times the last-level cache; when the cap binds (or the cache size
// is unknown) the array no longer clears the cache, so the bandwidth is still
// reported, with both sizes, but the roofline ratios are omitted.
func probeStream(s shape, m metrics) {
	peak := m.val("tensor.roof_peak_gflops_f64")
	llc := llcBytes()
	size := 4 * llc
	capped := llc == 0 || size > streamCap
	if capped {
		size = streamCap
	}
	buf := make([]float64, size/8)
	for i := range buf {
		buf[i] = 1 // touch every page: untouched pages all read one zero page
	}
	var per []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		var s0, s1, s2, s3 float64
		for i := 0; i+3 < len(buf); i += 4 {
			s0 += buf[i]
			s1 += buf[i+1]
			s2 += buf[i+2]
			s3 += buf[i+3]
		}
		roofSink = s0 + s1 + s2 + s3
		per = append(per, float64(time.Since(t0)))
	}
	gbs := float64(size) / median(per)
	m.set("tensor.roof_stream_gbs", gbs, "GB/s")
	m.set("tensor.roof_llc_mb", float64(llc)/(1<<20), "MB")
	m.set("tensor.roof_array_mb", float64(size)/(1<<20), "MB")
	if capped {
		return
	}
	roof := func(flopsPerByte float64) float64 { return min(peak, gbs*flopsPerByte) }
	m.set("tensor.chain_roof_frac", m.val("tensor.chain_gflops")/roof(s.chainFlops()/s.chainBytes()), "share")
	m.set("tensor.proj_roof_frac", m.val("tensor.proj_gflops")/roof(s.projFlops()/s.projBytes()), "share")
	if s.train {
		m.set("tensor.dw_roof_frac", m.val("tensor.dw_gflops")/roof(s.dwFlops()/s.dwBytes()), "share")
	}
}

// gemmEstShare is the share of a train step's task time the GEMMs account
// for, estimated from outside: each kernel family's flops per step (from the
// model's sizes) over its direct-call rate, summed, over the profiled work.
// The backward chain GEMM (dHPrev = dGates·Wh) is the dx kernel on one
// operand and is charged at the dx rate.
func gemmEstShare(w *workload, m metrics) float64 {
	s := shapeOf(w)
	cells := float64(2 * s.layers * s.t * s.mbs) // both directions
	perCellIn := func(in int) float64 { return 2 * float64(s.m*in*s.gw()) }
	proj := 2 * float64(s.t*s.mbs) * (perCellIn(s.in0) + float64(s.layers-1)*perCellIn(s.in))
	dx := 2 * float64(s.t*s.mbs) * float64(s.layers-1) * perCellIn(s.in)
	dw := proj + cells*s.chainFlops() // both halves of DW: the x stack and the h stack
	chain := cells * s.chainFlops()
	ns := chain/m.val("tensor.chain_gflops") + proj/m.val("tensor.proj_gflops") +
		(chain+dx)/m.val("tensor.dx_gflops") + dw/m.val("tensor.dw_gflops")
	return ratio(ns/1e6, m.val("core.work_ms"))
}
