package experiments

// These tests encode the *shape* of every table and figure in the paper's
// evaluation: who wins, by roughly what factor, and where the crossovers
// fall. Absolute numbers come from a calibrated cost model and are recorded
// in EXPERIMENTS.md; the assertions here use generous bands around the
// paper's ratios so they check structure, not calibration luck.
//
// Each test also compares its result, byte for byte, with a golden file
// (testdata/golden/<TestName>.json), so any change to a simulator output
// shows as a reviewed diff. go test ./internal/experiments -update rewrites
// the files. The values are those of amd64, where Go never fuses a
// multiply-add.
//
// Tests run with a reduced sequence length to keep the suite fast;
// cmd/bpar-bench runs the full paper parameters.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bpar/internal/core"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the experiments' results")

// checkGolden marshals res as indented JSON and compares it byte for byte
// with testdata/golden/<TestName>.json, or rewrites that file under -update.
// One file per test keeps -run filters and the -race skips from dropping
// another test's entry.
func checkGolden(t *testing.T, res any) {
	t.Helper()
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", t.Name()+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -update writes it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return strings.TrimSpace(ls[i])
		}
		return "<end of file>"
	}
	t.Errorf("%s: result differs from %s at line %d\n  got:  %s\n  want: %s\n(go test -update accepts the change)",
		strings.TrimPrefix(t.Name(), "Test"), path, i+1, line(gl), line(wl))
}

// testOpts keeps experiment tests quick.
func testOpts() Opts {
	return Opts{SeqLen: 40, CoreCounts: []int{1, 8, 24, 32, 48}}
}

// lstmTable is Table III at testOpts, computed once: the Table III test
// checks it and the Table IV test compares the GRU rows against it.
var lstmTable = sync.OnceValues(func() ([]TableRow, error) { return RunTable(core.LSTM, testOpts()) })

// skipUnderRace skips simulation-sweep tests under the race detector: they
// exercise no concurrency (the simulator is single-goroutine) and run an
// order of magnitude slower instrumented.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("simulation sweep skipped under -race (no concurrency to check)")
	}
}

func TestTableIIIShape(t *testing.T) {
	skipUnderRace(t)
	rows, err := lstmTable()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 12 {
		t.Fatalf("want 12 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// B-Par always beats the CPU frameworks (paper: 1.17-9.16x).
		if r.SpKCPU < 1.0 || r.SpKCPU > 5.0 {
			t.Errorf("in=%d hid=%d b=%d s=%d: speed-up vs Keras-CPU %.2f outside [1.0, 5.0] (paper band 1.17-1.93)",
				r.Input, r.Hidden, r.Batch, r.Seq, r.SpKCPU)
		}
		if r.SpPCPU < 1.2 || r.SpPCPU > 14 {
			t.Errorf("in=%d hid=%d b=%d s=%d: speed-up vs PyTorch-CPU %.2f outside [1.2, 14] (paper band 1.30-9.16)",
				r.Input, r.Hidden, r.Batch, r.Seq, r.SpPCPU)
		}
		// PyTorch-CPU never beats Keras-CPU (holds across the paper tables).
		if r.PCPU <= r.KCPU {
			t.Errorf("in=%d hid=%d b=%d: PyTorch (%.3f) should be slower than Keras (%.3f)",
				r.Input, r.Hidden, r.Batch, r.PCPU, r.KCPU)
		}
		if r.Batch >= 128 {
			// Large batches: the GPU wins (paper speed-ups vs K-GPU are
			// 0.07-0.22 for these rows).
			if r.SpKGPU >= 1 {
				t.Errorf("in=%d hid=%d b=%d: GPU should win large batches, got %.2f", r.Input, r.Hidden, r.Batch, r.SpKGPU)
			}
			// And B-Par beats B-Seq through model parallelism.
			if r.BPar >= r.BSeq {
				t.Errorf("in=%d hid=%d b=%d: B-Par (%.3f) should beat B-Seq (%.3f)", r.Input, r.Hidden, r.Batch, r.BPar, r.BSeq)
			}
		}
		if r.Batch == 1 && r.Seq < 10 {
			// The paper's claim: B-Par is faster than the GPU frameworks
			// when both batch size and sequence length are smaller than 10.
			if r.SpKGPU <= 1 {
				t.Errorf("b=1 s=%d: B-Par should beat the GPU, got %.2f", r.Seq, r.SpKGPU)
			}
		}
		if r.Batch == 1 && r.Seq == 10 {
			// Sequence length 10 is the crossover region (paper: 1.18x; our
			// f64 arithmetic doubles memory traffic, landing just below).
			if r.SpKGPU < 0.6 || r.SpKGPU > 3.5 {
				t.Errorf("b=1 s=10: expected near-crossover vs GPU, got %.2f", r.SpKGPU)
			}
		}
		// PyTorch-GPU hangs exactly on the >90M-parameter rows.
		wantHang := r.Params > 90_000_000
		if r.PGPUHang != wantHang {
			t.Errorf("in=%d hid=%d: PGPU hang=%v, want %v (params %d)", r.Input, r.Hidden, r.PGPUHang, wantHang, r.Params)
		}
	}
}

func TestTableIVShape(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunTable(core.GRU, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	lstm, err := lstmTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.SpKCPU < 1.0 || r.SpKCPU > 5.0 {
			t.Errorf("GRU in=%d hid=%d b=%d: vs Keras %.2f outside [1.0, 5.0] (paper 1.56-2.34)",
				r.Input, r.Hidden, r.Batch, r.SpKCPU)
		}
		if r.SpPCPU < 1.2 || r.SpPCPU > 14 {
			t.Errorf("GRU in=%d hid=%d b=%d: vs PyTorch %.2f outside [1.2, 14] (paper 2.15-7.49)",
				r.Input, r.Hidden, r.Batch, r.SpPCPU)
		}
		// GRUs are cheaper than LSTMs at the same configuration.
		if r.BPar >= lstm[i].BPar {
			t.Errorf("GRU B-Par (%.3f) should be cheaper than LSTM (%.3f) for row %d", r.BPar, lstm[i].BPar, i)
		}
		// No >90M GRU rows in the paper's table hang... the 3 largest do:
		wantHang := r.Params > 90_000_000
		if r.PGPUHang != wantHang {
			t.Errorf("GRU in=%d hid=%d: hang=%v want %v", r.Input, r.Hidden, r.PGPUHang, wantHang)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	skipUnderRace(t)
	results, err := RunFig3(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, results)
	if len(results) != 2 || results[0].Layers != 8 || results[1].Layers != 12 {
		t.Fatal("want 8- and 12-layer results")
	}
	for _, r := range results {
		idx := func(cores int) int {
			for i, c := range r.Cores {
				if c == cores {
					return i
				}
			}
			t.Fatalf("core count %d missing", cores)
			return -1
		}
		mbsIdx := func(mbs int) int {
			for i, m := range r.MBS {
				if m == mbs {
					return i
				}
			}
			t.Fatalf("mbs %d missing", mbs)
			return -1
		}
		c24, c32, c48 := idx(24), idx(32), idx(48)
		// Speed-up grows with mbs at high core counts (paper: more
		// mini-batches expose more parallelism).
		for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
			lo, hi := mbsIdx(pair[0]), mbsIdx(pair[1])
			if r.Speedup[hi][c48] <= r.Speedup[lo][c48] {
				t.Errorf("%d layers: speed-up at 48 cores should grow mbs %d->%d: %.2f vs %.2f",
					r.Layers, pair[0], pair[1], r.Speedup[lo][c48], r.Speedup[hi][c48])
			}
		}
		// NUMA degradation for low-concurrency configurations: mbs:1 and
		// mbs:2 lose performance moving from one socket (24 cores) to two
		// (32/48 cores).
		for _, m := range []int{1, 2} {
			mi := mbsIdx(m)
			if !(r.Speedup[mi][c32] < r.Speedup[mi][c24]) && !(r.Speedup[mi][c48] < r.Speedup[mi][c24]) {
				t.Errorf("%d layers mbs:%d: expected NUMA dip beyond 24 cores: 24=%.3f 32=%.3f 48=%.3f",
					r.Layers, m, r.Speedup[mi][c24], r.Speedup[mi][c32], r.Speedup[mi][c48])
			}
		}
		// The best configuration uses a large mini-batch count on at least
		// a full socket (paper: mbs:8 at 48 cores).
		bestM, bestC, best := 0, 0, 0.0
		for mi := range r.MBS {
			for ci := range r.Cores {
				if r.Speedup[mi][ci] > best {
					best, bestM, bestC = r.Speedup[mi][ci], r.MBS[mi], r.Cores[ci]
				}
			}
		}
		if bestM < 8 {
			t.Errorf("%d layers: best mbs %d, want >= 8", r.Layers, bestM)
		}
		if bestC < 24 {
			t.Errorf("%d layers: best core count %d, want >= 24", r.Layers, bestC)
		}
		if best < 4 || best > 48 {
			t.Errorf("%d layers: best speed-up %.2f implausible", r.Layers, best)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	skipUnderRace(t)
	r, err := RunFig4(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	idx := func(cores int) int {
		for i, c := range r.Cores {
			if c == cores {
				return i
			}
		}
		t.Fatalf("core count %d missing", cores)
		return -1
	}
	c8, c24, c48 := idx(8), idx(24), idx(48)
	// B-Seq is flat beyond 8 cores: data parallelism alone cannot use more
	// cores than mini-batches.
	if r.BSeq[c24] < r.BSeq[c8]*0.99 || r.BSeq[c48] < r.BSeq[c8]*0.99 {
		t.Errorf("B-Seq should not improve past 8 cores: %.3f %.3f %.3f", r.BSeq[c8], r.BSeq[c24], r.BSeq[c48])
	}
	// B-Par keeps improving past 8 cores thanks to model parallelism.
	if !(r.BPar[c24] < r.BPar[c8]*0.85) {
		t.Errorf("B-Par should gain from 8->24 cores: %.3f -> %.3f", r.BPar[c8], r.BPar[c24])
	}
	// At large core counts B-Par clearly beats every baseline.
	for i, c := range r.Cores {
		if c >= 24 {
			if r.BPar[i] >= r.Keras[i] || r.BPar[i] >= r.PyTorch[i] || r.BPar[i] >= r.BSeq[i] {
				t.Errorf("at %d cores B-Par (%.3f) should beat Keras %.3f, PyTorch %.3f, B-Seq %.3f",
					c, r.BPar[i], r.Keras[i], r.PyTorch[i], r.BSeq[i])
			}
		}
	}
	// Keras shows the NUMA cliff on dual-socket runs.
	if !(r.Keras[idx(32)] > r.Keras[c24]) {
		t.Errorf("Keras should degrade crossing sockets: %.3f -> %.3f", r.Keras[c24], r.Keras[idx(32)])
	}
}

func TestFig5Shape(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunFig5(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 16 {
		t.Fatalf("want 16 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Paper: B-Par wins every configuration, 1.58-6.40x.
		if r.SpeedupVsKeras < 1.0 || r.SpeedupVsKeras > 8 {
			t.Errorf("L%d h%d b%d: vs Keras %.2f outside [1.0, 8]", r.Layers, r.Hidden, r.Batch, r.SpeedupVsKeras)
		}
		if r.SpeedupVsPyTorch < r.SpeedupVsKeras {
			t.Errorf("L%d h%d b%d: PyTorch should be the weaker baseline", r.Layers, r.Hidden, r.Batch)
		}
		// PyTorch performs worst among all configurations (paper).
		if r.PyTorch < r.Keras {
			t.Errorf("L%d h%d b%d: PyTorch (%.3f) should be slowest CPU framework (Keras %.3f)",
				r.Layers, r.Hidden, r.Batch, r.PyTorch, r.Keras)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunFig6(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 4 {
		t.Fatal("want 4 layer counts")
	}
	prevTrain := 0.0
	for _, r := range rows {
		// Deeper models take longer for every system.
		if r.TrainBPar <= prevTrain {
			t.Errorf("%d layers: B-Par training time should grow with depth", r.Layers)
		}
		prevTrain = r.TrainBPar
		// B-Par wins both training and inference at every depth.
		if r.TrainSpeedup < 1.2 || r.TrainSpeedup > 10 {
			t.Errorf("%d layers: training speed-up %.2f outside [1.2, 10]", r.Layers, r.TrainSpeedup)
		}
		if r.InferSpeedup < 2 || r.InferSpeedup > 10 {
			t.Errorf("%d layers: inference speed-up %.2f outside [2, 10] (paper: 5.89 at 12 layers)", r.Layers, r.InferSpeedup)
		}
		// Inference is far cheaper than training.
		if r.InferBPar >= r.TrainBPar/2 {
			t.Errorf("%d layers: inference (%.3f) should be well under half of training (%.3f)", r.Layers, r.InferBPar, r.TrainBPar)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := RunFig7(Opts{SeqLen: 60})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	// Paper: locality-aware scheduling reduces batch time by ~20%.
	if r.Improvement < 0.08 || r.Improvement > 0.45 {
		t.Errorf("locality improvement %.1f%% outside [8%%, 45%%] (paper ~20%%)", r.Improvement*100)
	}
	// IPC mass moves INTO the 1.5-2 bucket (paper: 5% -> 29%).
	if !(r.LocIPCShares[3] > r.FIFOIPCShares[3]) {
		t.Errorf("IPC 1.5-2 share should grow with locality: %.2f -> %.2f", r.FIFOIPCShares[3], r.LocIPCShares[3])
	}
	// MPKI mass moves OUT of the 20-30 bucket (paper: 28% -> 10%).
	if !(r.LocMPKIShares[2] < r.FIFOMPKIShares[2]) {
		t.Errorf("MPKI 20-30 share should drop with locality: %.2f -> %.2f", r.FIFOMPKIShares[2], r.LocMPKIShares[2])
	}
	if !(r.LocHit > r.FIFOHit) {
		t.Errorf("cache-hit ratio should improve: %.2f -> %.2f", r.FIFOHit, r.LocHit)
	}
}

func TestFig8Shape(t *testing.T) {
	skipUnderRace(t)
	rows, err := RunFig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 32 {
		t.Fatalf("want 32 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// Paper: B-Par beats Keras on every many-to-many configuration
		// (maxima 1.54-2.44x).
		if r.Speedup < 1.1 || r.Speedup > 7 {
			t.Errorf("%v L%d h%d b%d: speed-up %.2f outside [1.1, 7]", r.Cell, r.Layers, r.Hidden, r.Batch, r.Speedup)
		}
	}
	maxima := map[int]float64{}
	for _, r := range rows {
		maxima[r.Layers] = max(maxima[r.Layers], r.Speedup)
	}
	for _, l := range []int{2, 4, 8, 12} {
		if maxima[l] < 1.5 {
			t.Errorf("%d layers: max speed-up %.2f below 1.5", l, maxima[l])
		}
	}
}

func TestGranularityShape(t *testing.T) {
	r, err := RunGranularity(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	// Paper-scale modelled durations: avg near the paper's 13,052us.
	if r.PaperAvgUS < 2000 || r.PaperAvgUS > 40000 {
		t.Errorf("paper-scale avg task duration %.0fus outside [2000, 40000] (paper 13,052)", r.PaperAvgUS)
	}
	if !(r.PaperMinUS < r.PaperAvgUS && r.PaperAvgUS < r.PaperMaxUS) {
		t.Errorf("duration ordering broken: %f %f %f", r.PaperMinUS, r.PaperAvgUS, r.PaperMaxUS)
	}
	// Cell-task working set at paper scale: the paper reports 4.71 MB in
	// f32 counting layer-0 weights; our f64 weights+activations estimate
	// must land within a small factor.
	if r.AvgLSTMTaskWorkingSetMB < 5 || r.AvgLSTMTaskWorkingSetMB > 40 {
		t.Errorf("avg LSTM task working set %.2f MB implausible", r.AvgLSTMTaskWorkingSetMB)
	}
	// 368,240 tasks correspond to an integral number of training steps of
	// the right order (paper runs ~100 batches).
	if r.PaperStepsFor368k < 20 || r.PaperStepsFor368k > 500 {
		t.Errorf("steps to reach 368,240 tasks: %d implausible", r.PaperStepsFor368k)
	}
}

func TestMemoryShape(t *testing.T) {
	r, err := RunMemory(Opts{SeqLen: 60})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	// Barrier-free execution keeps more tasks in flight...
	if !(r.FreeAvgTasks > r.BarrierAvgTasks) {
		t.Errorf("avg parallel tasks: free %.1f should exceed barrier %.1f (paper 16 vs 6)", r.FreeAvgTasks, r.BarrierAvgTasks)
	}
	// ...and therefore a larger concurrent working set...
	if !(r.FreeAvgWS > r.BarrierAvgWS) {
		t.Errorf("avg working set: free %.0f should exceed barrier %.0f (paper 75.36MB vs 28.26MB)", r.FreeAvgWS, r.BarrierAvgWS)
	}
	// ...in exchange for a faster batch.
	if !(r.FreeSec < r.BarrierSec) {
		t.Errorf("barrier-free %.3fs should beat per-layer sync %.3fs", r.FreeSec, r.BarrierSec)
	}
	// Magnitudes in the tens of MB, as in the paper.
	const mb = 1 << 20
	if r.BarrierAvgWS/mb < 5 || r.BarrierAvgWS/mb > 120 {
		t.Errorf("barrier working set %.1f MB implausible vs paper's 28.26", r.BarrierAvgWS/mb)
	}
}

func TestAblationBarrierShape(t *testing.T) {
	r, err := RunAblationBarrier(Opts{SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, r)
	if r.Speedup < 1.05 || r.Speedup > 4 {
		t.Errorf("barrier-removal speed-up %.2f outside [1.05, 4]", r.Speedup)
	}
	if !(r.AvgParallelismFree > r.AvgParallelismBarrier) {
		t.Errorf("barrier-free parallelism %.1f should exceed %.1f", r.AvgParallelismFree, r.AvgParallelismBarrier)
	}
}

func TestAblationGranularityShape(t *testing.T) {
	rows, err := RunAblationGranularity(Opts{SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 4 || rows[0].Parts != 1 {
		t.Fatal("want parts 1,2,4,8")
	}
	// Task counts grow with splitting.
	for i := 1; i < len(rows); i++ {
		if rows[i].Tasks <= rows[i-1].Tasks {
			t.Fatal("finer granularity must mean more tasks")
		}
	}
	// The paper's cell-granular choice is never beaten by a wide margin,
	// and the finest split is strictly worse than the coarsest.
	if rows[3].MakespanSec <= rows[0].MakespanSec {
		t.Errorf("8-way split (%.3fs) should be slower than cell-granular (%.3fs)",
			rows[3].MakespanSec, rows[0].MakespanSec)
	}
	for _, r := range rows[1:] {
		if r.MakespanSec < rows[0].MakespanSec*0.9 {
			t.Errorf("parts=%d unexpectedly beats cell granularity by >10%%", r.Parts)
		}
	}
}

func TestAblationPolicyShape(t *testing.T) {
	rows, err := RunAblationPolicy(Opts{SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	for _, r := range rows {
		// At the full-machine core counts where the paper runs its locality
		// study, the locality scheduler wins or ties; at low core counts the
		// LIFO preference can cost a few percent of queueing delay.
		limit := 1.15
		if r.Cores >= 24 {
			limit = 1.02
		}
		if r.LocalitySec > r.FIFOSec*limit {
			t.Errorf("%d cores: locality (%.3f) should not lose to FIFO (%.3f)", r.Cores, r.LocalitySec, r.FIFOSec)
		}
		if r.CPSec <= 0 {
			t.Errorf("%d cores: critical-path makespan missing", r.Cores)
		}
	}
}

func TestEfficiencyShape(t *testing.T) {
	rows, err := RunEfficiency(Opts{SeqLen: 40, CoreCounts: []int{1, 8, 24, 48}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if rows[0].Cores != 1 || rows[0].Efficiency < 0.999 || rows[0].Efficiency > 1.001 {
		t.Fatalf("1-core efficiency must be 1.0, got %+v", rows[0])
	}
	prev := 2.0
	for _, r := range rows {
		// Efficiency decreases monotonically with core count (limited
		// model parallelism + NUMA), and stays positive.
		if r.Efficiency <= 0 || r.Efficiency > prev+1e-9 {
			t.Errorf("%d cores: efficiency %.3f not monotone decreasing", r.Cores, r.Efficiency)
		}
		prev = r.Efficiency
		if r.Speedup < 1 && r.Cores > 1 {
			t.Errorf("%d cores: speedup %.2f below 1", r.Cores, r.Speedup)
		}
	}
}

func TestPlatformsShape(t *testing.T) {
	rows, err := RunPlatforms(Opts{SeqLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if len(rows) != 2 {
		t.Fatal("want 2 platforms")
	}
	for _, r := range rows {
		if r.MakespanSec <= 0 || r.Cores != 48 {
			t.Errorf("%s: implausible result %+v", r.Name, r)
		}
	}
	// Both are 48-core machines on the same graph; times within one order
	// of magnitude of each other.
	ratio := rows[0].MakespanSec / rows[1].MakespanSec
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("platform ratio %.2f implausible", ratio)
	}
}

func TestCrossoverShape(t *testing.T) {
	rows, err := RunCrossover(Opts{CoreCounts: []int{1, 8, 24, 48}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rows)
	if rows[0].SeqLen != 2 || rows[len(rows)-1].SeqLen != 100 {
		t.Fatal("sweep endpoints wrong")
	}
	// B-Par wins the shortest sequences; the GPU wins the longest — the
	// crossover the paper's batch-1 rows straddle.
	if rows[0].SpeedupVsGPU <= 1 {
		t.Errorf("seq 2: B-Par should win, got %.2f", rows[0].SpeedupVsGPU)
	}
	if rows[len(rows)-1].SpeedupVsGPU >= 1 {
		t.Errorf("seq 100: GPU should win, got %.2f", rows[len(rows)-1].SpeedupVsGPU)
	}
	// The advantage decays monotonically (within noise) along the sweep.
	for i := 1; i < len(rows); i++ {
		if rows[i].SpeedupVsGPU > rows[i-1].SpeedupVsGPU*1.1 {
			t.Errorf("advantage should decay with seq length: %v", rows)
		}
	}
}
