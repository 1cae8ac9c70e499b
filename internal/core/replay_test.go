package core

import (
	"testing"

	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// trainNReplay is trainN with an explicit replay switch, so the same
// model/executor combination can run with its cached template (the default)
// or with a fresh capture every step (NoReplay, the equivalence oracle).
func trainNReplay(t *testing.T, cfg Config, noReplay bool, mkExec func() taskrt.Executor, n int) (*Model, float64) {
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
	e.NoReplay = noReplay
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

// TestReplayMatchesFreshBitwise is the template cache's correctness
// contract: replaying the cached template must be bitwise identical to
// capturing the task graph afresh every step, because the edge set — and
// therefore the floating-point summation order — is the same. Covered across all cell
// kinds, both architectures and worker counts.
func TestReplayMatchesFreshBitwise(t *testing.T) {
	execs := []struct {
		name string
		mk   func() taskrt.Executor
	}{
		{"inline", inlineExec},
		{"w1-bf", parallelExec(1)},
		{"w4-bf", parallelExec(4)},
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"lstm-split", smallCfg(LSTM, ManyToOne, 2)},
		{"gru-split", smallCfg(GRU, ManyToOne, 2)},
		{"rnn-split", smallCfg(RNN, ManyToOne, 2)},
		{"gru-m2m-split", smallCfg(GRU, ManyToMany, 1)},
		{"rnn-m2m-split", smallCfg(RNN, ManyToMany, 1)},
	}
	for _, ec := range cases {
		for _, ex := range execs {
			ec, ex := ec, ex
			t.Run(ec.name+"/"+ex.name, func(t *testing.T) {
				freshM, freshLoss := trainNReplay(t, ec.cfg, true, ex.mk, 4)
				replayM, replayLoss := trainNReplay(t, ec.cfg, false, ex.mk, 4)
				if !freshM.WeightsEqual(replayM) {
					t.Fatalf("replay diverged from fresh emission: max |diff| = %g",
						freshM.WeightsMaxAbsDiff(replayM))
				}
				if freshLoss != replayLoss {
					t.Fatalf("loss diverged: fresh %g vs replay %g", freshLoss, replayLoss)
				}
			})
		}
	}
}

// TestReplayReducedMatchesUnreducedBitwise pins the transitive reduction's
// equivalence claim directly: a template frozen with the reduced edge set
// must train bitwise identically to one frozen with the full derived edges,
// because the reduction preserves the dependency closure and the bodies —
// and therefore every floating-point summation order — are untouched.
func TestReplayReducedMatchesUnreducedBitwise(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 2)
	run := func(noReduce bool) *Model {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Options{Workers: 4})
		defer rt.Shutdown()
		e := NewEngine(m, rt)
		e.noReduce = noReduce
		for i := 0; i < 4; i++ {
			if _, err := e.TrainStep(makeBatch(cfg, uint64(500+i)), 0.05); err != nil {
				t.Fatal(err)
			}
		}
		tpl := e.tpls[tplKey{kind: stepTrain, T: cfg.SeqLen}]
		pruned := tpl.FullEdges() - tpl.Edges()
		if noReduce && pruned != 0 {
			t.Fatalf("noReduce engine pruned %d edges", pruned)
		}
		if !noReduce && pruned == 0 {
			t.Fatal("default engine pruned no edges — the comparison is vacuous")
		}
		return m
	}
	reduced := run(false)
	full := run(true)
	if !reduced.WeightsEqual(full) {
		t.Fatalf("reduced replay diverged from unreduced: max |diff| = %g",
			reduced.WeightsMaxAbsDiff(full))
	}
}

// TestReplayInferMatchesFresh covers the forward-only template (Infer uses a
// separate tplKey from TrainStep).
func TestReplayInferMatchesFresh(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToMany, 2)
	run := func(noReplay bool) ([][]int, float64) {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Options{Workers: 4})
		defer rt.Shutdown()
		e := NewEngine(m, rt)
		e.NoReplay = noReplay
		if _, err := e.TrainStep(makeBatch(cfg, 7), 0.05); err != nil {
			t.Fatal(err)
		}
		preds, loss, err := e.Infer(makeBatch(cfg, 8))
		if err != nil {
			t.Fatal(err)
		}
		return preds, loss
	}
	freshP, freshL := run(true)
	replayP, replayL := run(false)
	if freshL != replayL {
		t.Fatalf("infer loss diverged: fresh %g vs replay %g", freshL, replayL)
	}
	for h := range freshP {
		for i := range freshP[h] {
			if freshP[h][i] != replayP[h][i] {
				t.Fatalf("prediction [%d][%d] diverged: %d vs %d", h, i, freshP[h][i], replayP[h][i])
			}
		}
	}
}

// TestReplayDepcheckClean runs the replay path under the dependency sanitizer:
// replays re-announce the captured submission sequence, so the shadow-version
// checks must stay clean across several training and inference steps.
func TestReplayDepcheckClean(t *testing.T) {
	defer tensor.SetAccessHook(nil)
	cfg := smallCfg(LSTM, ManyToOne, 2)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := taskrt.New(taskrt.Options{Workers: 4, DepCheck: true})
	defer rt.Shutdown()
	e := NewEngine(m, rt)
	for i := 0; i < 3; i++ {
		if _, err := e.TrainStep(makeBatch(cfg, uint64(100+i)), 0.05); err != nil {
			t.Fatalf("train step %d: %v", i, err)
		}
	}
	if _, _, err := e.Infer(makeBatch(cfg, 200)); err != nil {
		t.Fatalf("infer: %v", err)
	}
}

// TestReplayVariableSeqLens checks template capture per sequence length:
// alternating batch shapes each replay their own template and still match
// a fresh capture every step bitwise.
func TestReplayVariableSeqLens(t *testing.T) {
	cfg := smallCfg(GRU, ManyToOne, 1)
	lens := []int{5, 3, 5, 7, 3}
	run := func(noReplay bool) *Model {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := taskrt.New(taskrt.Options{Workers: 4})
		defer rt.Shutdown()
		e := NewEngine(m, rt)
		e.NoReplay = noReplay
		for i, T := range lens {
			c := cfg
			c.SeqLen = T
			if _, err := e.TrainStep(makeBatch(c, uint64(300+i)), 0.05); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	freshM := run(true)
	replayM := run(false)
	if !freshM.WeightsEqual(replayM) {
		t.Fatalf("variable-length replay diverged: max |diff| = %g",
			freshM.WeightsMaxAbsDiff(replayM))
	}
}

// TestReplayTemplateCacheEvictsWithWorkspaces: templates close over their
// sequence length's workspace buffers, so evicting a T from the workspace LRU
// must evict its templates too — and a later step at that T must recapture.
func TestReplayTemplateCacheEvictsWithWorkspaces(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, taskrt.NewInline(nil))
	e.MaxCachedSeqLens = 1

	step := func(T int) {
		c := cfg
		c.SeqLen = T
		if _, err := e.TrainStep(makeBatch(c, 42), 0.05); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Infer(makeBatch(c, 43)); err != nil {
			t.Fatal(err)
		}
	}

	step(5)
	if len(e.tpls) != 2 {
		t.Fatalf("after T=5: %d cached templates, want 2 (train + infer)", len(e.tpls))
	}
	if _, ok := e.tpls[tplKey{kind: stepTrain, T: 5}]; !ok {
		t.Fatal("train template for T=5 missing")
	}

	step(7) // evicts T=5's workspaces, and with them its templates
	if _, ok := e.tpls[tplKey{kind: stepTrain, T: 5}]; ok {
		t.Fatal("T=5 templates survived workspace eviction")
	}
	if len(e.tpls) != 2 {
		t.Fatalf("after T=7: %d cached templates, want 2", len(e.tpls))
	}

	step(5) // recaptures against the rebuilt workspaces
	if _, ok := e.tpls[tplKey{kind: stepTrain, T: 5}]; !ok {
		t.Fatal("T=5 train template not recaptured after eviction")
	}
}
