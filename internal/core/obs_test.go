package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"bpar/internal/obs"
	"bpar/internal/taskrt"
)

// unlabeled strips the labels off a batch, as serving-path inference does.
func unlabeled(b *Batch) *Batch {
	return &Batch{X: b.X, Real: b.Real}
}

// TestInferWithoutLabelsKeepsLoss is the regression test for the serving-path
// bug where unlabeled Infer/InferProbs published loss = 0.0 to
// bpar_engine_loss, clobbering the last real training loss.
func TestInferWithoutLabelsKeepsLoss(t *testing.T) {
	for _, arch := range []Arch{ManyToOne, ManyToMany} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := smallCfg(LSTM, arch, 1)
			m, err := NewModel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(m, inlineExec())
			e.EnableObs(obs.NewRegistry())

			loss, err := e.TrainStep(makeBatch(cfg, 1), 0.05)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.obs.loss.Value(); got != loss {
				t.Fatalf("loss gauge = %g after training, want %g", got, loss)
			}

			if _, _, err := e.Infer(unlabeled(makeBatch(cfg, 2))); err != nil {
				t.Fatal(err)
			}
			if got := e.obs.loss.Value(); got != loss {
				t.Errorf("unlabeled Infer moved the loss gauge to %g, want last training loss %g", got, loss)
			}
			if _, _, err := e.InferProbs(unlabeled(makeBatch(cfg, 3))); err != nil {
				t.Fatal(err)
			}
			if got := e.obs.loss.Value(); got != loss {
				t.Errorf("unlabeled InferProbs moved the loss gauge to %g, want last training loss %g", got, loss)
			}

			// A labeled eval batch must still update it.
			_, evalLoss, err := e.Infer(makeBatch(cfg, 4))
			if err != nil {
				t.Fatal(err)
			}
			if got := e.obs.loss.Value(); got != evalLoss {
				t.Errorf("labeled Infer left the loss gauge at %g, want %g", got, evalLoss)
			}
		})
	}
}

// TestRecordStepUsesRealRows is the regression test for the throughput bug
// where bpar_engine_sequences_per_second was computed from Cfg.Batch even
// when the batch carried fewer real sequences (padded serving batches).
func TestRecordStepUsesRealRows(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, inlineExec())
	e.EnableObs(obs.NewRegistry())

	b := unlabeled(makeBatch(cfg, 1))
	b.Real = 2
	if _, _, err := e.InferProbs(b); err != nil {
		t.Fatal(err)
	}
	wantFill := float64(b.Real) / float64(cfg.Batch)
	if got := e.obs.batchFill.Value(); math.Abs(got-wantFill) > 1e-15 {
		t.Errorf("batch fill gauge = %g for Real=%d/Batch=%d, want %g", got, b.Real, cfg.Batch, wantFill)
	}
	partialRate := e.obs.seqPerSec.Value()
	if partialRate <= 0 {
		t.Fatalf("sequences-per-second gauge = %g, want > 0", partialRate)
	}

	// Real = 0 means a full batch: fill snaps back to 1.
	if _, _, err := e.InferProbs(unlabeled(makeBatch(cfg, 2))); err != nil {
		t.Fatal(err)
	}
	if got := e.obs.batchFill.Value(); got != 1 {
		t.Errorf("batch fill gauge = %g for a full batch, want 1", got)
	}

	// Out-of-range Real must be rejected, not silently clamped.
	bad := unlabeled(makeBatch(cfg, 3))
	bad.Real = cfg.Batch + 1
	if _, _, err := e.InferProbs(bad); err == nil {
		t.Error("InferProbs accepted Real > Cfg.Batch")
	}
}

// TestTemplateSeriesMatchTemplateStats pins the exported template-cache
// series: their names and labels, and that they read the same single count
// of each lookup that TemplateStats returns.
func TestTemplateSeriesMatchTemplateStats(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, inlineExec())
	reg := obs.NewRegistry()
	e.EnableObs(reg, "engine", "3")

	for i := 0; i < 3; i++ {
		if _, err := e.TrainStep(makeBatch(cfg, uint64(i)), 0.05); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := e.InferProbs(unlabeled(makeBatch(cfg, uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := e.TemplateStats()
	if hits != 3 || misses != 2 {
		t.Fatalf("TemplateStats = %d hits, %d misses; want 3, 2", hits, misses)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("bpar_engine_template_hits_total{engine=\"3\"} %d\n", hits),
		fmt.Sprintf("bpar_engine_template_misses_total{engine=\"3\"} %d\n", misses),
		"# TYPE bpar_engine_template_hits_total counter\n",
		"# TYPE bpar_engine_template_misses_total counter\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("scrape lacks %q:\n%s", want, b.String())
		}
	}
}

// gateExec wraps the inline executor so the test can hold an engine inside a
// step: the first Wait signals entry and blocks until released.
type gateExec struct {
	*taskrt.Inline
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateExec() *gateExec {
	return &gateExec{
		Inline:  taskrt.NewInline(nil),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateExec) Wait() error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Inline.Wait()
}

// TestConcurrentStepReturnsErrEngineBusy proves the in-step CAS guard: a
// second step on an engine already executing one fails fast with
// ErrEngineBusy instead of corrupting shared workspaces. Run under -race in
// CI, this also proves the guard itself is data-race free.
func TestConcurrentStepReturnsErrEngineBusy(t *testing.T) {
	cfg := smallCfg(LSTM, ManyToOne, 1)
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newGateExec()
	e := NewEngine(m, g)

	firstErr := make(chan error, 1)
	go func() {
		_, _, err := e.Infer(unlabeled(makeBatch(cfg, 1)))
		firstErr <- err
	}()
	<-g.entered // the first step is now mid-execution

	if _, _, err := e.Infer(unlabeled(makeBatch(cfg, 2))); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("concurrent Infer returned %v, want ErrEngineBusy", err)
	}
	if _, _, err := e.InferProbs(unlabeled(makeBatch(cfg, 3))); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("concurrent InferProbs returned %v, want ErrEngineBusy", err)
	}
	if _, err := e.TrainStep(makeBatch(cfg, 4), 0.05); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("concurrent TrainStep returned %v, want ErrEngineBusy", err)
	}
	if _, err := e.TrainStepBarrier(makeBatch(cfg, 4), 0.05); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("concurrent TrainStepBarrier returned %v, want ErrEngineBusy", err)
	}

	close(g.release)
	if err := <-firstErr; err != nil {
		t.Fatalf("gated first step failed: %v", err)
	}

	// The guard releases on completion: a fresh step succeeds.
	if _, _, err := e.Infer(unlabeled(makeBatch(cfg, 5))); err != nil {
		t.Fatalf("step after release failed: %v", err)
	}
}
