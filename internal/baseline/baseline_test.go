package baseline

import (
	"testing"

	"bpar/internal/core"
	"bpar/internal/costmodel"
)

func cfg6(cell core.CellKind, in, hid, batch, seq int) core.Config {
	return core.Config{
		Cell: cell, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: in, HiddenSize: hid, Layers: 6, SeqLen: seq,
		Batch: batch, Classes: 10, MiniBatches: 1,
	}
}

var xeon = costmodel.XeonPlatinum8160x2()

func TestKerasScalesThenSaturates(t *testing.T) {
	k := KerasCPU(xeon)
	c := cfg6(core.LSTM, 256, 256, 128, 100)
	t1 := k.TrainBatchSec(c, 1)
	t8 := k.TrainBatchSec(c, 8)
	t24 := k.TrainBatchSec(c, 24)
	t48 := k.TrainBatchSec(c, 48)
	if !(t8 < t1/2.5) {
		t.Fatalf("8 cores should be >2.5x faster than 1: %g vs %g", t8, t1)
	}
	if !(t24 <= t8*1.05) {
		t.Fatalf("24 cores should be at least as good as 8: %g vs %g", t24, t8)
	}
	// NUMA cliff: crossing the socket boundary does not help (paper: Keras
	// degrades on dual-socket configurations).
	if t48 < t24 {
		t.Fatalf("48 cores should show NUMA saturation: %g vs %g", t48, t24)
	}
}

func TestPyTorchSlowerThanKeras(t *testing.T) {
	k := KerasCPU(xeon)
	p := PyTorchCPU(xeon)
	for _, c := range []core.Config{
		cfg6(core.LSTM, 256, 256, 128, 100),
		cfg6(core.LSTM, 256, 1024, 256, 100),
		cfg6(core.GRU, 64, 256, 128, 100),
	} {
		kt := k.TrainBatchSec(c, 48)
		pt := p.TrainBatchSec(c, 48)
		if pt <= kt {
			t.Fatalf("%v: PyTorch (%g) should be slower than Keras (%g)", c, pt, kt)
		}
	}
}

func TestPyTorchThrashOnHugeModels(t *testing.T) {
	p := PyTorchCPU(xeon)
	k := KerasCPU(xeon)
	small := cfg6(core.LSTM, 256, 256, 256, 100)
	big := cfg6(core.LSTM, 256, 1024, 256, 100)
	ratioSmall := p.TrainBatchSec(small, 48) / k.TrainBatchSec(small, 48)
	ratioBig := p.TrainBatchSec(big, 48) / k.TrainBatchSec(big, 48)
	// Paper: P/K ratio is ~2-3x for 6M models and ~4-5x for 94M models.
	if ratioBig <= ratioSmall*1.5 {
		t.Fatalf("PyTorch should degrade disproportionately on 94M params: %g vs %g", ratioBig, ratioSmall)
	}
}

func TestGPUWinsLargeLosesSmall(t *testing.T) {
	k := KerasCPU(xeon)
	kg := KerasGPU(costmodel.TeslaV100())

	big := cfg6(core.LSTM, 256, 256, 128, 100)
	cpuBig := k.TrainBatchSec(big, 48)
	gpuBig, err := kg.TrainBatchSec(big)
	if err != nil {
		t.Fatal(err)
	}
	if gpuBig >= cpuBig {
		t.Fatalf("GPU should win at batch 128 seq 100: %g vs %g", gpuBig, cpuBig)
	}

	small := cfg6(core.LSTM, 256, 256, 1, 2)
	cpuSmall, _ := k.BestOverCores(small, []int{1, 2, 4, 8, 16, 24, 32, 48}, true)
	gpuSmall, err := kg.TrainBatchSec(small)
	if err != nil {
		t.Fatal(err)
	}
	if gpuSmall <= cpuSmall {
		t.Fatalf("CPU should win at batch 1 seq 2: gpu %g vs cpu %g", gpuSmall, cpuSmall)
	}
}

func TestPyTorchGPUHangsOnHugeModels(t *testing.T) {
	pg := PyTorchGPU(costmodel.TeslaV100())
	big := cfg6(core.LSTM, 256, 1024, 256, 100) // 94.4M params
	if _, err := pg.TrainBatchSec(big); err != ErrHang {
		t.Fatalf("expected hang, got %v", err)
	}
	small := cfg6(core.LSTM, 256, 256, 128, 100)
	if _, err := pg.TrainBatchSec(small); err != nil {
		t.Fatalf("small model should run: %v", err)
	}
}

func TestInferCheaperThanTrain(t *testing.T) {
	k := KerasCPU(xeon)
	c := cfg6(core.LSTM, 256, 256, 128, 100)
	if !(k.batchSec(c, 24, false) < k.TrainBatchSec(c, 24)/2) {
		t.Fatal("inference should be well under half of training")
	}
}

func TestBestOverCoresPicksMinimum(t *testing.T) {
	k := KerasCPU(xeon)
	c := cfg6(core.LSTM, 256, 256, 1, 100)
	best, bc := k.BestOverCores(c, []int{1, 2, 4, 8, 16, 24, 32, 48}, true)
	for _, cc := range []int{1, 2, 4, 8, 16, 24, 32, 48} {
		if k.TrainBatchSec(c, cc) < best {
			t.Fatalf("BestOverCores missed a better core count than %d", bc)
		}
	}
}

// TestKerasMagnitudesNearPaper sanity-checks that the calibration lands
// within a factor of ~2.5 of the paper's measured Keras-CPU times for two
// very different configurations — close enough that reported *ratios*
// are meaningful.
func TestKerasMagnitudesNearPaper(t *testing.T) {
	k := KerasCPU(xeon)
	cases := []struct {
		cfg      core.Config
		paperSec float64
	}{
		{cfg6(core.LSTM, 256, 256, 128, 100), 1.770},
		{cfg6(core.LSTM, 256, 1024, 256, 100), 28.571},
		{cfg6(core.GRU, 256, 256, 128, 100), 1.254},
	}
	for _, tc := range cases {
		got, _ := k.BestOverCores(tc.cfg, []int{8, 16, 24, 32, 48}, true)
		if got < tc.paperSec/2.5 || got > tc.paperSec*2.5 {
			t.Errorf("%v: modelled %.3fs vs paper %.3fs (off more than 2.5x)", tc.cfg, got, tc.paperSec)
		}
	}
}
