package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"bpar/internal/taskrt"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		cfg := smallCfg(cell, ManyToOne, 2)
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Train a little so weights are non-trivial.
		e := NewEngine(m, taskrt.NewInline(nil))
		for i := 0; i < 3; i++ {
			if _, err := e.TrainStep(makeBatch(cfg, uint64(i)), 0.1); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded.Cfg, cfg) {
			t.Fatalf("config mismatch: %+v vs %+v", loaded.Cfg, cfg)
		}
		if !loaded.WeightsEqual(m) {
			t.Fatalf("%v: weights not bitwise preserved: %g", cell, loaded.WeightsMaxAbsDiff(m))
		}
		// The loaded model behaves identically.
		b := makeBatch(cfg, 99)
		_, lossA, err := NewEngine(m, taskrt.NewInline(nil)).Infer(b)
		if err != nil {
			t.Fatal(err)
		}
		_, lossB, err := NewEngine(loaded, taskrt.NewInline(nil)).Infer(b)
		if err != nil {
			t.Fatal(err)
		}
		if lossA != lossB {
			t.Fatalf("loaded model diverges: %g vs %g", lossA, lossB)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not a model at all")); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := LoadModel(strings.NewReader("")); err == nil {
		t.Fatal("expected EOF error")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	m, _ := NewModel(smallCfg(LSTM, ManyToOne, 1))
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadModel(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestAdamConvergesAndIsDeterministic(t *testing.T) {
	cfg := Config{
		Cell: GRU, Arch: ManyToOne, Merge: MergeSum,
		InputSize: 4, HiddenSize: 8, Layers: 2, SeqLen: 4,
		Batch: 8, Classes: 3, MiniBatches: 2, Seed: 5,
	}
	run := func(mk func() taskrt.Executor) (*Model, float64) {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exec := mk()
		if rt, ok := exec.(*taskrt.Runtime); ok {
			defer rt.Shutdown()
		}
		e := NewEngine(m, exec)
		e.Adam = true
		b := makeBatch(cfg, 77)
		var loss float64
		for i := 0; i < 60; i++ {
			var err error
			loss, err = e.TrainStep(b, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(loss) {
				t.Fatal("Adam produced NaN")
			}
		}
		return m, loss
	}
	seqM, seqLoss := run(inlineExec)
	parM, parLoss := run(parallelExec(4, taskrt.BreadthFirst))
	if !seqM.WeightsEqual(parM) || seqLoss != parLoss {
		t.Fatalf("Adam parallel diverged from sequential: %g", seqM.WeightsMaxAbsDiff(parM))
	}
	// Adam must actually fit the batch.
	if seqLoss > 0.35 {
		t.Fatalf("Adam failed to fit: loss %g", seqLoss)
	}
}

func TestAdamBeatsSGDOnFixedBudget(t *testing.T) {
	cfg := Config{
		Cell: LSTM, Arch: ManyToOne, Merge: MergeSum,
		InputSize: 4, HiddenSize: 8, Layers: 2, SeqLen: 4,
		Batch: 8, Classes: 3, MiniBatches: 1, Seed: 9,
	}
	run := func(adam bool) float64 {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, taskrt.NewInline(nil))
		lr := 0.05
		if adam {
			e.Adam = true
			lr = 0.01
		}
		b := makeBatch(cfg, 7)
		var loss float64
		for i := 0; i < 50; i++ {
			if loss, err = e.TrainStep(b, lr); err != nil {
				t.Fatal(err)
			}
		}
		return loss
	}
	sgd := run(false)
	adam := run(true)
	if adam >= sgd {
		t.Fatalf("Adam (%.4f) should beat plain SGD (%.4f) at 50 steps", adam, sgd)
	}
}
