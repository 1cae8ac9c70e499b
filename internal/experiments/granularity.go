package experiments

import (
	"io"
	"math"
	"runtime"
	"sort"
	"sync"

	"bpar/internal/baseline"
	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/sim"
	"bpar/internal/taskrt"
)

// KindStats summarizes the host run's tasks of one kind.
type KindStats struct {
	Kind          string
	Count         int
	MeanUS        float64 // mean task duration in microseconds
	AvgWorkingSet float64 // bytes
	TotalFlops    float64
}

// Granularity is the measured task-duration distribution of one host run:
// the quantities the paper reports for Section IV-B (task count, duration
// range and average, cell-task working set).
type Granularity struct {
	TotalTasks int
	// Task durations over every kind, in microseconds; P50US is the
	// nearest-rank median.
	MinUS, MeanUS, P50US, MaxUS float64
	// ByKind holds per-kind summaries sorted by kind name.
	ByKind []KindStats
}

// granularitySink is the host run's taskrt.TraceSink: every task duration
// plus per-kind running sums, folded into a Granularity by summarize.
type granularitySink struct {
	mu     sync.Mutex
	durUS  []float64
	byKind map[string]*KindStats // MeanUS and AvgWorkingSet hold sums until summarize
}

func (s *granularitySink) TaskDone(rec taskrt.TaskRecord) {
	dur := float64(rec.EndNS-rec.StartNS) / 1000.0
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durUS = append(s.durUS, dur)
	ks := s.byKind[rec.Kind]
	if ks == nil {
		ks = &KindStats{Kind: rec.Kind}
		s.byKind[rec.Kind] = ks
	}
	ks.Count++
	ks.MeanUS += dur
	ks.AvgWorkingSet += float64(rec.WorkingSet)
	ks.TotalFlops += rec.Flops
}

// summarize reduces the recorded tasks to a Granularity. Call it once the
// runtime has drained.
func (s *granularitySink) summarize() *Granularity {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &Granularity{TotalTasks: len(s.durUS)}
	if n := len(s.durUS); n > 0 {
		sort.Float64s(s.durUS)
		sum := 0.0
		for _, d := range s.durUS {
			sum += d
		}
		g.MinUS, g.MaxUS = s.durUS[0], s.durUS[n-1]
		g.MeanUS = sum / float64(n)
		g.P50US = s.durUS[int(math.Ceil(0.5*float64(n)))-1]
	}
	for _, ks := range s.byKind {
		ks.MeanUS /= float64(ks.Count)
		ks.AvgWorkingSet /= float64(ks.Count)
		g.ByKind = append(g.ByKind, *ks)
	}
	sort.Slice(g.ByKind, func(i, j int) bool { return g.ByKind[i].Kind < g.ByKind[j].Kind })
	return g
}

// GranularityResult reproduces the task-granularity study of Section IV-B.
// The paper's configuration (seq 100, batch 128, input 64, hidden 512)
// executes a host-scaled variant natively (for real measured durations and
// runtime-overhead accounting) and evaluates the paper-scale configuration
// through the cost model.
type GranularityResult struct {
	// Host-measured, scaled-down run on the native runtime.
	HostTasks       int
	HostGranularity *Granularity
	HostOverhead    float64 // runtime bookkeeping time / task body time
	// The absolute sides of that ratio, so the Section IV-B table can show
	// overhead alongside the duration distribution: total time inside task
	// bodies (useful work) and total submit+complete bookkeeping.
	HostUsefulSec   float64
	HostOverheadSec float64
	// Paper-scale estimates from the cost model.
	PaperTasksPerStep int
	PaperStepsFor368k int // batches needed to reach the paper's 368,240 tasks
	// Cost-model task durations (µs) for the paper configuration.
	PaperMinUS, PaperAvgUS, PaperMaxUS float64
	// AvgLSTMTaskWorkingSetMB is the mean cell-task working set at paper
	// scale (the paper reports 4.71 MB).
	AvgLSTMTaskWorkingSetMB float64
}

// RunGranularity executes the granularity study.
func RunGranularity(o Opts) (*GranularityResult, error) {
	res := &GranularityResult{}

	// ---- Host-scale native run: real tasks, real durations. ----
	hostCfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 32, HiddenSize: 64, Layers: 6, SeqLen: 20,
		Batch: 16, Classes: 11, MiniBatches: 2, Seed: 1,
	}
	sink := &granularitySink{byKind: map[string]*KindStats{}}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	rt := taskrt.New(taskrt.Options{Workers: workers, Policy: taskrt.LocalityAware, Sink: sink})
	m, err := core.NewModel(hostCfg)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(m, rt)
	corpus := data.NewSpeechCorpus(hostCfg.InputSize, 7)
	for i := 0; i < 3; i++ {
		b := corpus.Batch(hostCfg.Batch, hostCfg.SeqLen)
		if _, err := eng.TrainStep(b, 0.05); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	stats := rt.Stats()
	rt.Shutdown()
	res.HostGranularity = sink.summarize()
	res.HostTasks = res.HostGranularity.TotalTasks
	res.HostOverhead = stats.OverheadRatio()
	res.HostUsefulSec = float64(stats.TaskNS) / 1e9
	res.HostOverheadSec = float64(stats.SubmitNS+stats.CompleteNS) / 1e9

	// ---- Paper-scale cost-model estimates. ----
	paperCfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 64, HiddenSize: 512, Layers: 6, SeqLen: o.seq(100),
		Batch: 128, Classes: 11, MiniBatches: 1, Seed: 1,
	}
	g, err := baseline.TrainGraph(paperCfg)
	if err != nil {
		return nil, err
	}
	res.PaperTasksPerStep = len(g.Nodes)
	res.PaperStepsFor368k = (368240 + len(g.Nodes) - 1) / len(g.Nodes)

	machine := o.machine()
	minUS, maxUS, sumUS := -1.0, 0.0, 0.0
	var lstmWS float64
	var lstmN int
	for _, nd := range g.Nodes {
		// Cold-start duration estimate (hit ratio 0): the upper envelope.
		dur := machine.TaskSeconds(nd.Flops, float64(nd.WorkingSet), 1) * 1e6
		if minUS < 0 || dur < minUS {
			minUS = dur
		}
		if dur > maxUS {
			maxUS = dur
		}
		sumUS += dur
		if nd.Kind == "lstm" || nd.Kind == "lstm-bwd" {
			lstmWS += float64(nd.WorkingSet)
			lstmN++
		}
	}
	res.PaperMinUS = minUS
	res.PaperAvgUS = sumUS / float64(len(g.Nodes))
	res.PaperMaxUS = maxUS
	if lstmN > 0 {
		res.AvgLSTMTaskWorkingSetMB = lstmWS / float64(lstmN) / (1 << 20)
	}
	return res, nil
}

// PrintGranularity renders the study.
func PrintGranularity(w io.Writer, r *GranularityResult) {
	fprintf(w, "Task-granularity study (Section IV-B)\n")
	fprintf(w, "host-scale native run: %d tasks, runtime overhead ratio %.4f (paper keeps this < 0.1)\n",
		r.HostTasks, r.HostOverhead)
	fprintf(w, "  useful work %.3fs in task bodies, %.1fms runtime bookkeeping (submit+complete)\n",
		r.HostUsefulSec, r.HostOverheadSec*1e3)
	g := r.HostGranularity
	fprintf(w, "total tasks: %d\n", g.TotalTasks)
	fprintf(w, "task duration (us): min=%.1f avg=%.1f p50=%.1f max=%.1f\n",
		g.MinUS, g.MeanUS, g.P50US, g.MaxUS)
	for _, ks := range g.ByKind {
		fprintf(w, "  %-10s count=%6d avg=%9.1fus ws=%8.2fMB\n",
			ks.Kind, ks.Count, ks.MeanUS, ks.AvgWorkingSet/(1<<20))
	}
	fprintf(w, "paper-scale (seq 100, batch 128, in 64, hidden 512):\n")
	fprintf(w, "  tasks per training step: %d (368,240 total tasks = %d steps)\n",
		r.PaperTasksPerStep, r.PaperStepsFor368k)
	fprintf(w, "  modelled task duration: min %.1fus avg %.1fus max %.1fus (paper: 272.8 / 13,052 / 315,178)\n",
		r.PaperMinUS, r.PaperAvgUS, r.PaperMaxUS)
	fprintf(w, "  avg LSTM-task working set: %.2f MB (paper: 4.71 MB)\n", r.AvgLSTMTaskWorkingSetMB)
}

// MemoryResult reproduces the memory-consumption study of Section IV-B: the
// working set of concurrently active tasks with and without per-layer
// synchronization, for an 8-layer BLSTM at mbs:6.
type MemoryResult struct {
	// Concurrent working set (bytes): time-averaged sum of running tasks'
	// working sets. Paper: 75.36 MB barrier-free vs 28.26 MB with
	// per-layer synchronization.
	FreeAvgWS, BarrierAvgWS   float64
	FreePeakWS, BarrierPeakWS int64
	// Average concurrently running tasks. Paper: 16 vs 6.
	FreeAvgTasks, BarrierAvgTasks float64
	// Makespans, showing the performance the extra memory buys.
	FreeSec, BarrierSec float64
}

// RunMemory executes the memory study.
func RunMemory(o Opts) (*MemoryResult, error) {
	machine := o.machine()
	cfg := blstmCfg(8, 256, 128, o.seq(100), 6)
	free, err := baseline.TrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	barred, err := baseline.BarrierTrainGraph(cfg)
	if err != nil {
		return nil, err
	}
	rFree, err := sim.Run(free, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
	if err != nil {
		return nil, err
	}
	rBar, err := sim.Run(barred, sim.Options{Machine: machine, Cores: 48, Policy: sim.Locality})
	if err != nil {
		return nil, err
	}
	return &MemoryResult{
		FreeAvgWS:       rFree.AvgRunningWS,
		BarrierAvgWS:    rBar.AvgRunningWS,
		FreePeakWS:      rFree.PeakRunningWS,
		BarrierPeakWS:   rBar.PeakRunningWS,
		FreeAvgTasks:    rFree.AvgRunningTasks,
		BarrierAvgTasks: rBar.AvgRunningTasks,
		FreeSec:         rFree.MakespanSec,
		BarrierSec:      rBar.MakespanSec,
	}, nil
}

// PrintMemory renders the study.
func PrintMemory(w io.Writer, r *MemoryResult) {
	const mb = 1 << 20
	fprintf(w, "Memory study (Section IV-B) — 8-layer BLSTM, mbs:6\n")
	fprintf(w, "%22s %14s %14s\n", "", "barrier-free", "per-layer sync")
	fprintf(w, "%22s %11.2f MB %11.2f MB   (paper: 75.36 vs 28.26)\n", "avg active working set",
		r.FreeAvgWS/mb, r.BarrierAvgWS/mb)
	fprintf(w, "%22s %11.2f MB %11.2f MB\n", "peak active working set",
		float64(r.FreePeakWS)/mb, float64(r.BarrierPeakWS)/mb)
	fprintf(w, "%22s %14.1f %14.1f   (paper: 16 vs 6)\n", "avg parallel tasks",
		r.FreeAvgTasks, r.BarrierAvgTasks)
	fprintf(w, "%22s %12.3f s %12.3f s\n", "batch time", r.FreeSec, r.BarrierSec)
}
