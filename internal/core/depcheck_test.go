package core

import (
	"fmt"
	"strings"
	"testing"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// depCheckConfig is a small-but-real training configuration: 2 layers so
// merge outputs feed upper cells, 2 mini-batches so reduce tasks exist.
func depCheckConfig(cell CellKind, arch Arch) Config {
	return Config{
		Cell: cell, Arch: arch, Merge: MergeSum,
		InputSize: 6, HiddenSize: 8, Classes: 5,
		Layers: 2, SeqLen: 4, Batch: 6, MiniBatches: 2, Seed: 7,
	}
}

func trainBatches(t *testing.T, cfg Config, n int) []*Batch {
	t.Helper()
	bs := make([]*Batch, n)
	for i := range bs {
		bs[i] = synthBatch(cfg, uint64(100+i))
	}
	return bs
}

// synthBatch builds a deterministic batch for cfg from seed.
func synthBatch(cfg Config, seed uint64) *Batch {
	b := &Batch{X: make([]*tensor.Matrix, cfg.SeqLen)}
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
	if cfg.Arch == ManyToOne {
		b.Targets = make([]int, cfg.Batch)
		for i := range b.Targets {
			b.Targets[i] = int(uint64(i)*(seed|1)) % cfg.Classes
		}
	} else {
		b.StepTargets = make([][]int, cfg.SeqLen)
		for t := range b.StepTargets {
			b.StepTargets[t] = make([]int, cfg.Batch)
			for i := range b.StepTargets[t] {
				b.StepTargets[t][i] = int(uint64(t+i)*(seed|1)) % cfg.Classes
			}
		}
	}
	return b
}

// TestDepCheckTrainStepClean proves the real emitters declare every tensor
// access: several full training steps plus inference under the sanitizer
// must report nothing, for each cell kind and both architectures.
func TestDepCheckTrainStepClean(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, arch := range []Arch{ManyToOne, ManyToMany} {
			t.Run(fmt.Sprintf("%v-%v", cell, arch), func(t *testing.T) {
				cfg := depCheckConfig(cell, arch)
				m, err := NewModel(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rt := taskrt.New(taskrt.Options{Workers: 3, DepCheck: true})
				defer rt.Shutdown()
				defer tensor.SetAccessHook(nil)
				eng := NewEngine(m, rt)
				for i, b := range trainBatches(t, cfg, 3) {
					if _, err := eng.TrainStep(b, 0.05); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if _, _, err := eng.Infer(synthBatch(cfg, 55)); err != nil {
					t.Fatalf("infer: %v", err)
				}
			})
		}
	}
}

// stripOutExec forwards every replay to the wrapped runtime, but first
// removes the Out list of the template's task with the given label —
// simulating an emitter that forgot to declare the buffer it writes.
type stripOutExec struct {
	rt    *taskrt.Runtime
	label string
}

func (s *stripOutExec) Replay(tpl *taskrt.Template) {
	for i := 0; i < tpl.Len(); i++ {
		if t := tpl.Task(i); t.Label == s.label {
			t.Out = nil
		}
	}
	s.rt.Replay(tpl)
}
func (s *stripOutExec) Wait() error                    { return s.rt.Wait() }
func (s *stripOutExec) DepChecker() *taskrt.DepChecker { return s.rt.DepChecker() }

// TestDepCheckCatchesUndeclaredWriteInTrainStep injects the paper's failure
// mode into a real TrainStep graph: one merge task loses its Out
// declaration, so its write to the merged buffer is no longer covered. The
// sanitizer must fail the step loudly, naming the task and the key.
func TestDepCheckCatchesUndeclaredWriteInTrainStep(t *testing.T) {
	cfg := depCheckConfig(LSTM, ManyToOne)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 2, DepCheck: true})
	defer rt.Shutdown()
	defer tensor.SetAccessHook(nil)
	exec := &stripOutExec{rt: rt, label: "merge L0 t1 mb0"}
	eng := NewEngine(m, exec)

	_, err = eng.TrainStep(synthBatch(cfg, 9), 0.05)
	if err == nil {
		t.Fatal("undeclared write in TrainStep graph not reported")
	}
	for _, want := range []string{"undeclared write", `"merge L0 t1 mb0"`, "merged L0 t1 mb0"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
}

// trainWeights trains a fresh model from cfg for a few steps on the given
// executor configuration, with its cached template or a fresh capture every
// step, and returns the resulting model.
func trainWeights(t *testing.T, cfg Config, workers int, pol taskrt.Policy, noReplay bool, batches []*Batch) *Model {
	t.Helper()
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: workers, Policy: pol, DepCheck: true})
	defer rt.Shutdown()
	defer tensor.SetAccessHook(nil)
	eng := NewEngine(m, rt)
	eng.GradClip = 1.0
	eng.NoReplay = noReplay
	for i, b := range batches {
		if _, err := eng.TrainStep(b, 0.05); err != nil {
			t.Fatalf("workers=%d policy=%v noReplay=%v step %d: %v", workers, pol, noReplay, i, err)
		}
	}
	return m
}

// TestDepCheckDeterminism: with the sanitizer enabled, training is bitwise
// identical across worker counts {1, 2, 4}, both scheduling policies, and
// cached template vs fresh capture every step — the no-barrier graph fixes
// the floating-point summation order, so any divergence would indicate an
// undeclared dependency the checker missed.
func TestDepCheckDeterminism(t *testing.T) {
	cfg := depCheckConfig(LSTM, ManyToOne)
	batches := trainBatches(t, cfg, 4)
	ref := trainWeights(t, cfg, 1, taskrt.BreadthFirst, false, batches)
	for _, noReplay := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			for _, pol := range []taskrt.Policy{taskrt.BreadthFirst, taskrt.LocalityAware} {
				got := trainWeights(t, cfg, workers, pol, noReplay, batches)
				if !ref.WeightsEqual(got) {
					t.Errorf("weights diverged at workers=%d policy=%v noReplay=%v", workers, pol, noReplay)
				}
			}
		}
	}
}
