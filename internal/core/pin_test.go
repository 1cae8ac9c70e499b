package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bpar/internal/prof"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// weightFingerprint hashes the exact bit patterns of every parameter in the
// model, in a fixed traversal order (per layer: fwd W, fwd B, rev W, rev B;
// then each head's W and B). Any single-ULP deviation changes the hash.
func weightFingerprint(m *Model) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	add := func(vals []float64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			h.Write(buf)
		}
	}
	for l := 0; l < m.Cfg.Layers; l++ {
		for _, p := range []*dirParams{m.dir[fwdDir][l], m.dir[revDir][l]} {
			w, b := p.wParams()
			add(w.Data)
			add(b)
		}
	}
	for i := range m.Heads {
		add(m.Heads[i].W.Data)
		add(m.Heads[i].B)
	}
	return h.Sum64()
}

// twoHeadCfg is smallCfg split over two mini-batches with a classification
// and a tagging head: the smallest shape in which every host-side parameter
// pass (reduce, clip, Adam, SGD) touches both directions of
// several layers and more than one head.
func twoHeadCfg(cell CellKind) Config {
	cfg := smallCfg(cell, ManyToMany, 2)
	cfg.Heads = []HeadSpec{{Kind: HeadClassify, Classes: 3}, {Kind: HeadTag, Classes: 4}}
	return cfg
}

// TestSingleHeadBitwisePin pins training numerics to exact bit patterns. The
// first three fingerprints were captured from the implementation before the
// multi-head refactor (one baked-in classifier head). The two-head cases pin
// Adam and gradient clipping over the mbs:2 reduce graph; the Adam constants
// were captured from the implementation with paired fwd/rev fields and
// separate directions-then-heads loops, which the parameter catalogue must
// reproduce bit for bit. The rnn-m2o case was captured while a second, fused
// gate path still existed beside the one it pins. The clip-only case was
// captured while the engine still had momentum and weight decay options, so
// clipping stayed pinned across their removal.
func TestSingleHeadBitwisePin(t *testing.T) {
	plain := func(cfg Config, seed uint64) *Batch { return makeBatch(cfg, seed) }
	multi := func(cfg Config, seed uint64) *Batch { return makeMultiBatch(cfg, seed, false) }
	cases := []struct {
		name     string
		cfg      Config
		setup    func(*Engine)
		batch    func(Config, uint64) *Batch
		wantHash uint64
		wantLoss uint64 // Float64bits of the final step loss
	}{
		{
			name:     "lstm-m2o",
			cfg:      smallCfg(LSTM, ManyToOne, 2),
			batch:    plain,
			wantHash: 0x16c656dc4d298ae9,
			wantLoss: 0x3ff1a22987862915,
		},
		{
			name:     "gru-m2m",
			cfg:      smallCfg(GRU, ManyToMany, 1),
			batch:    plain,
			wantHash: 0xa5c5e1a8e85e003f,
			wantLoss: 0x3ff12d42a288f81b,
		},
		{
			name:     "rnn-m2o",
			cfg:      smallCfg(RNN, ManyToOne, 1),
			batch:    plain,
			wantHash: 0xe393515924008936,
			wantLoss: 0x3ff1c033a9015381,
		},
		{
			name:     "adam-2head-mbs2",
			cfg:      twoHeadCfg(GRU),
			setup:    func(e *Engine) { e.Adam = true },
			batch:    multi,
			wantHash: 0x29774cceda388bb9,
			wantLoss: 0x3ff655b282821b79,
		},
		{
			name:     "clip-2head-mbs2",
			cfg:      twoHeadCfg(LSTM),
			setup:    func(e *Engine) { e.GradClip = 0.05 },
			batch:    multi,
			wantHash: 0x461ed03dbd8641d6,
			wantLoss: 0x3ff99427a3c0a40f,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewModel(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(m, inlineExec())
			if tc.setup != nil {
				tc.setup(e)
			}
			var loss float64
			for i := 0; i < 3; i++ {
				loss, err = e.TrainStep(tc.batch(tc.cfg, uint64(100+i)), 0.05)
				if err != nil {
					t.Fatal(err)
				}
			}
			gotHash := weightFingerprint(m)
			gotLoss := math.Float64bits(loss)
			if gotHash != tc.wantHash || gotLoss != tc.wantLoss {
				t.Fatalf("numerics drifted from the pin:\n  hash 0x%x want 0x%x\n  loss 0x%x want 0x%x",
					gotHash, tc.wantHash, gotLoss, tc.wantLoss)
			}
		})
	}
}

func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestTemplateDumpPins pins the frozen step templates — task labels, kinds,
// cost metadata, declared keys by depcheck name, dependency order, submission
// order and the reduced edge set — as FNV-64a of the DumpTemplates JSON. The
// constants were captured from the implementation with separate
// emitFwdCellBackward/emitRevCellBackward emitters and name-suffixed key
// fields; any emitter rewrite must leave every byte of the dump alone. The
// per-cell cases keep the "-fused=false" names they were pinned under, from
// when engines could also emit fused gate tasks.
func TestTemplateDumpPins(t *testing.T) {
	type tc struct {
		name  string
		cfg   Config
		f32   bool
		train bool
		lens  bool
	}
	var cases []tc
	for _, cell := range []CellKind{LSTM, GRU, RNN} {
		for _, train := range []bool{true, false} {
			name := fmt.Sprintf("%v-train=%v-fused=false", cell, train)
			cases = append(cases, tc{name: name, cfg: smallCfg(cell, ManyToOne, 1), train: train})
		}
	}
	cases = append(cases,
		tc{name: "lstm-f32-infer", cfg: smallCfg(LSTM, ManyToMany, 2), f32: true},
		tc{name: "multihead-masked-mbs2-train", cfg: multiHeadCfg(LSTM, 2), train: true, lens: true},
		tc{name: "multihead-masked-mbs2-infer", cfg: multiHeadCfg(GRU, 2), lens: true},
	)
	want := map[string]uint64{
		"LSTM-train=true-fused=false":  0x89f787c67d9ce02f,
		"LSTM-train=false-fused=false": 0x77db519fb325409b,
		"GRU-train=true-fused=false":   0x9091e30eaf8b811e,
		"GRU-train=false-fused=false":  0xd48b52247868637f,
		"RNN-train=true-fused=false":   0x7e557240e826df28,
		"RNN-train=false-fused=false":  0x478c3cfb14769b89,
		"lstm-f32-infer":               0x966cbf33724999e0,
		"multihead-masked-mbs2-train":  0x1b8a559e39ae7c4d,
		"multihead-masked-mbs2-infer":  0x95e6c9fdd0a6da51,
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, err := NewModel(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(m, inlineExec())
			if c.f32 {
				e.InferDType = tensor.F32
			}
			b := makeBatch(c.cfg, 7)
			if len(c.cfg.Heads) > 0 {
				b = makeMultiBatch(c.cfg, 7, c.lens)
			}
			if c.train {
				_, err = e.TrainStep(b, 0.05)
			} else {
				_, _, err = e.InferProbs(b)
			}
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(e.DumpTemplates())
			if err != nil {
				t.Fatal(err)
			}
			if got := fnv64a(js); got != want[c.name] {
				t.Errorf("template dump drifted: 0x%x want 0x%x", got, want[c.name])
			}
		})
	}
}

// TestTemplateGraphPin pins the graph of a captured engine training
// template — predecessor lists and their data flags — as DOT rendering and
// the profiler see it, frozen reduced (the production template) and
// unreduced. A step writes every buffer once, so every derived edge is RAW
// and every flag is set; the pin holds that property too.
func TestTemplateGraphPin(t *testing.T) {
	cfg := multiHeadCfg(GRU, 2)
	want := map[bool]uint64{false: 0xb71050680aab6052, true: 0x29ca55318b11701e}
	for _, noReduce := range []bool{false, true} {
		m, err := NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(m, inlineExec())
		e.noReduce = noReduce
		if _, err := e.TrainStep(makeMultiBatch(cfg, 7, true), 0.05); err != nil {
			t.Fatal(err)
		}
		tpl := e.tpls[tplKey{kind: stepTrain, T: cfg.SeqLen}]
		if tpl == nil {
			t.Fatal("no training template captured")
		}
		d := prof.DumpTemplates([]*taskrt.Template{tpl}, nil).Templates[0]
		var buf bytes.Buffer
		for _, n := range d.Graph().Nodes {
			fmt.Fprintf(&buf, "%v|%v\n", n.Preds, n.DataPreds)
		}
		if got := fnv64a(buf.Bytes()); got != want[noReduce] {
			t.Errorf("template graph (noReduce=%v) drifted: 0x%x want 0x%x", noReduce, got, want[noReduce])
		}
	}
}

// TestCheckpointBytesPin pins the v2 checkpoint byte stream of a two-head
// model: header, head table, then per layer fwd W, fwd B, rev W, rev B, then
// each head's W and B.
func TestCheckpointBytesPin(t *testing.T) {
	m, err := NewModel(twoHeadCfg(GRU))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := fnv64a(buf.Bytes()), uint64(0xe7450d3999f259a1); got != want {
		t.Fatalf("checkpoint bytes drifted: 0x%x want 0x%x", got, want)
	}
}
