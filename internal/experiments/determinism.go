package experiments

import (
	"fmt"
	"io"

	"bpar/internal/core"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// DeterminismRow is one executor configuration of the determinism study.
type DeterminismRow struct {
	Workers   int
	Policy    taskrt.Policy
	Identical bool // weights bitwise equal to the 1-worker reference
}

// RunDeterminism trains the same small BLSTM, from the same weights on the
// same batches, across worker counts and both scheduling policies with the
// dependency sanitizer enabled, and compares the resulting weights bit for
// bit against a single-worker reference. The no-barrier graph serializes
// every floating-point accumulation along declared edges, so any divergence
// means a dependency the emitters failed to declare — which the sanitizer
// should also have caught as an undeclared access.
func RunDeterminism(o Opts) ([]DeterminismRow, error) {
	cfg := blstmCfg(2, 32, 16, o.seq(12), 2)
	cfg.InputSize = 16
	const steps = 4
	batches := make([]*core.Batch, steps)
	for i := range batches {
		batches[i] = synthTrainBatch(cfg, uint64(i)+1)
	}

	ref, err := trainDeterministic(cfg, o.NoReplay, 1, taskrt.BreadthFirst, batches)
	if err != nil {
		return nil, err
	}
	var rows []DeterminismRow
	for _, workers := range []int{1, 2, 4} {
		for _, pol := range []taskrt.Policy{taskrt.BreadthFirst, taskrt.LocalityAware} {
			m, err := trainDeterministic(cfg, o.NoReplay, workers, pol, batches)
			if err != nil {
				return nil, fmt.Errorf("workers=%d policy=%v: %w", workers, pol, err)
			}
			rows = append(rows, DeterminismRow{Workers: workers, Policy: pol, Identical: ref.WeightsEqual(m)})
		}
	}
	return rows, nil
}

// trainDeterministic runs `len(batches)` training steps under the sanitizer
// and returns the trained model.
func trainDeterministic(cfg core.Config, noReplay bool, workers int, pol taskrt.Policy, batches []*core.Batch) (*core.Model, error) {
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	rt := taskrt.New(taskrt.Options{Workers: workers, Policy: pol, DepCheck: true})
	defer rt.Shutdown()
	defer tensor.SetAccessHook(nil)
	eng := core.NewEngine(m, rt)
	eng.NoReplay = noReplay
	eng.GradClip = 1.0
	for i, b := range batches {
		if _, err := eng.TrainStep(b, 0.05); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return m, nil
}

// synthTrainBatch builds a deterministic many-to-one batch from a seed.
func synthTrainBatch(cfg core.Config, seed uint64) *core.Batch {
	b := &core.Batch{X: make([]*tensor.Matrix, cfg.SeqLen), Targets: make([]int, cfg.Batch)}
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>33))/float64(1<<30) - 1
	}
	for t := range b.X {
		b.X[t] = tensor.New(cfg.Batch, cfg.InputSize)
		for i := range b.X[t].Data {
			b.X[t].Data[i] = next() * 0.5
		}
	}
	for i := range b.Targets {
		b.Targets[i] = int(uint64(i)*(seed|1)) % cfg.Classes
	}
	return b
}

// PrintDeterminism renders the study.
func PrintDeterminism(w io.Writer, rows []DeterminismRow) {
	fprintf(w, "Determinism under depcheck — bitwise weight comparison vs 1-worker reference\n")
	fprintf(w, "%-10s %-15s %s\n", "workers", "policy", "identical")
	allOK := true
	for _, r := range rows {
		fprintf(w, "%-10d %-15v %v\n", r.Workers, r.Policy, r.Identical)
		if !r.Identical {
			allOK = false
		}
	}
	if allOK {
		fprintf(w, "all configurations bit-identical: the declared dependency graph fixes the summation order\n")
	} else {
		fprintf(w, "DIVERGENCE: an undeclared dependency reordered a floating-point accumulation\n")
	}
}
