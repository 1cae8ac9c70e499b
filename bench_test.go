package bpar

// One benchmark per table and figure of the paper's evaluation (Section
// IV), plus the design-choice ablations and a native-runtime benchmark.
// Each iteration regenerates the full experiment at paper parameters;
// reported ns/op is the cost of reproducing that artifact.
//
//	go test -bench=. -benchmem
//
// For readable experiment output use cmd/bpar-bench instead.

import (
	"runtime"
	"testing"

	"bpar/internal/core"
	"bpar/internal/data"
	"bpar/internal/experiments"
	"bpar/internal/prof"
	"bpar/internal/taskrt"
)

// paperOpts runs experiments at the paper's full parameters.
func paperOpts() experiments.Opts { return experiments.Opts{} }

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable(core.LSTM, paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable(core.GRU, paperOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig3(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig4(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunGranularity(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunMemory(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBarrier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBarrier(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationGranularity(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeTrainStep measures a real B-Par training step — actual
// numerics on this machine's cores through the goroutine runtime — for a
// host-sized BLSTM, with the locality-aware scheduler.
func BenchmarkNativeTrainStep(b *testing.B) {
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 32, HiddenSize: 64, Layers: 4, SeqLen: 24,
		Batch: 16, Classes: data.NumDigits, MiniBatches: 2, Seed: 1,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0), Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)
	corpus := data.NewSpeechCorpus(cfg.InputSize, 3)
	batch := corpus.Batch(cfg.Batch, cfg.SeqLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TrainStep(batch, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphReplay contrasts fresh per-step task-graph emission against
// capture-once/replay-every-step on the native runtime at the Table III
// serving row {input 256, hidden 256, batch 1, seq 100}, where per-step
// scheduling overhead is largest relative to the kernel bodies. The reported
// submit-ns/op metric isolates the submission lane: replay's counter-reset
// loop is expected to cost >=1.3x less than fresh emission's hashing and
// node allocation. The replay-prof variant runs the same replay path with
// the graph profiler attached; its ns/op delta against replay is the
// profiler's hot-path cost (budget: <3%). The replay modes report the
// transitive reduction's edges-pruned-% alongside.
func BenchmarkGraphReplay(b *testing.B) {
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 256, HiddenSize: 256, Layers: 6, SeqLen: 100,
		Batch: 1, Classes: 11, MiniBatches: 1, Seed: 1,
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	for _, mode := range []struct {
		name     string
		noReplay bool
		profile  bool
	}{
		{"fresh", true, false},
		{"replay", false, false},
		{"replay-prof", false, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			m, err := core.NewModel(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var psink taskrt.ProfileSink
			if mode.profile {
				psink = prof.NewGraphProfiler()
			}
			rt := taskrt.New(taskrt.Options{Workers: workers, Policy: taskrt.BreadthFirst, Profile: psink})
			defer rt.Shutdown()
			eng := core.NewEngine(m, rt)
			eng.NoReplay = mode.noReplay
			corpus := data.NewSpeechCorpus(cfg.InputSize, 3)
			batch := corpus.Batch(cfg.Batch, cfg.SeqLen)
			// Warm workspaces (and, on the replay path, capture the
			// template) outside the timed loop.
			if _, err := eng.TrainStep(batch, 0.01); err != nil {
				b.Fatal(err)
			}
			submitBase := rt.Stats().SubmitNS
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TrainStep(batch, 0.01); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(rt.Stats().SubmitNS-submitBase)/float64(b.N), "submit-ns/op")
			if !mode.noReplay {
				var frozen, full int
				for _, td := range eng.DumpTemplates().Templates {
					frozen += td.Edges()
					full += td.FullEdges
				}
				if full > 0 {
					b.ReportMetric(100*float64(full-frozen)/float64(full), "edges-pruned-%")
				}
			}
		})
	}
}

// BenchmarkNativeInfer measures a real forward-only pass.
func BenchmarkNativeInfer(b *testing.B) {
	cfg := core.Config{
		Cell: core.GRU, Arch: core.ManyToMany, Merge: core.MergeSum,
		InputSize: 32, HiddenSize: 64, Layers: 4, SeqLen: 24,
		Batch: 16, Classes: 32, MiniBatches: 2, Seed: 1,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0), Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)
	corpus := data.NewTextCorpus(32, 50_000, 5)
	batch := corpus.Batch(cfg.Batch, cfg.SeqLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Infer(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskRuntime measures raw task throughput of the dependency
// runtime on a dependency-free workload.
func BenchmarkTaskRuntime(b *testing.B) {
	rt := taskrt.New(taskrt.Options{Workers: runtime.GOMAXPROCS(0)})
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(&taskrt.Task{Fn: func() {}})
	}
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerSmallTasks floods the scheduler with tiny dependent
// tasks — the regime where submit/complete bookkeeping dominates — on 8+
// workers, batch-submitting one wave of 64 chains at a time. The reported
// metrics are the contention/idle counters of the sharded scheduler.
func BenchmarkSchedulerSmallTasks(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	const chains = 64
	rt := taskrt.New(taskrt.Options{Workers: workers, Policy: taskrt.LocalityAware})
	defer rt.Shutdown()
	batch := make([]*taskrt.Task, chains)
	sinks := make([]int64, chains) // per-chain: serialized by the InOut dep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < chains; c++ {
			c := c
			batch[c] = &taskrt.Task{
				Kind:  "tiny",
				InOut: []taskrt.Dep{c},
				Fn:    func() { sinks[c]++ },
			}
		}
		rt.SubmitAll(batch)
	}
	if err := rt.Wait(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := rt.Stats()
	if st.Executed != int64(b.N)*chains {
		b.Fatalf("executed %d, want %d", st.Executed, int64(b.N)*chains)
	}
	b.ReportMetric(st.OverheadRatio(), "overhead")
	b.ReportMetric(float64(st.LockWaitNS)/float64(b.N), "lockwait-ns/op")
	b.ReportMetric(float64(st.IdleNS())/float64(b.N), "idle-ns/op")
	b.ReportMetric(float64(st.Steals), "steals")
}

func BenchmarkAblationPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPolicy(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunEfficiency(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCrossover(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPlatforms(paperOpts()); err != nil {
			b.Fatal(err)
		}
	}
}
