package graphlint_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bpar/internal/core"
	"bpar/internal/graphlint"
	"bpar/internal/prof"
	"bpar/internal/rng"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// key is a comparable dependency key for hand-built captures.
type key string

// dumpOne returns the static dump of tpl, naming each key by its string.
func dumpOne(tpl *taskrt.Template) prof.TemplateData {
	return prof.DumpTemplates([]*taskrt.Template{tpl}, func(d taskrt.Dep) string { return string(d.(key)) }).Templates[0]
}

// goldenChain captures w -> r -> w2 on one key: the minimal template with a
// transitively redundant edge (w->w2).
func goldenChain(noReduce bool) prof.TemplateData {
	c := taskrt.NewCapture()
	c.NoReduce = noReduce
	k := key("x")
	c.Submit(&taskrt.Task{Label: "w", Out: []taskrt.Dep{k}})
	c.Submit(&taskrt.Task{Label: "r", In: []taskrt.Dep{k}})
	c.Submit(&taskrt.Task{Label: "w2", Out: []taskrt.Dep{k}})
	tpl := c.Freeze()
	tpl.Name = "chain"
	return dumpOne(tpl)
}

// goldenDiamond captures src -> {left, right} -> join.
func goldenDiamond() prof.TemplateData {
	c := taskrt.NewCapture()
	a, b := key("a"), key("b")
	c.Submit(&taskrt.Task{Label: "src", Out: []taskrt.Dep{a}})
	c.Submit(&taskrt.Task{Label: "left", In: []taskrt.Dep{a}, Out: []taskrt.Dep{b}})
	c.Submit(&taskrt.Task{Label: "right", In: []taskrt.Dep{a}})
	c.Submit(&taskrt.Task{Label: "join", In: []taskrt.Dep{b}, InOut: []taskrt.Dep{a}})
	tpl := c.Freeze()
	tpl.Name = "diamond"
	return dumpOne(tpl)
}

// goldenFanOut captures one writer feeding n independent readers joined by a
// final reducer.
func goldenFanOut(n int) prof.TemplateData {
	c := taskrt.NewCapture()
	src := key("src")
	c.Submit(&taskrt.Task{Label: "produce", Out: []taskrt.Dep{src}})
	outs := make([]taskrt.Dep, n)
	for i := 0; i < n; i++ {
		outs[i] = key("out" + string(rune('a'+i)))
		c.Submit(&taskrt.Task{
			Label: "consume" + string(rune('a'+i)),
			In:    []taskrt.Dep{src}, Out: []taskrt.Dep{outs[i]},
		})
	}
	c.Submit(&taskrt.Task{Label: "reduce", In: outs})
	tpl := c.Freeze()
	tpl.Name = "fan-out"
	return dumpOne(tpl)
}

func noDiags(t *testing.T, res *graphlint.Result) {
	t.Helper()
	for _, d := range res.Diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

func TestGoldenTemplatesClean(t *testing.T) {
	for _, d := range []prof.TemplateData{goldenChain(false), goldenDiamond(), goldenFanOut(4)} {
		res := graphlint.Check(&d)
		noDiags(t, res)
		if res.KeyPairs == 0 {
			t.Errorf("%s: happens-before proved no pairs", d.Name)
		}
		if res.FrozenEdges != res.MinimalEdges {
			t.Errorf("%s: frozen %d edges, minimal %d — Freeze did not reduce", d.Name, res.FrozenEdges, res.MinimalEdges)
		}
	}
	// An unreduced freeze must also verify clean: full edges are a valid
	// (just non-minimal) equivalence-preserving set.
	d := goldenChain(true)
	res := graphlint.Check(&d)
	noDiags(t, res)
	if res.FrozenEdges != res.FullEdges || res.MinimalEdges >= res.FrozenEdges {
		t.Errorf("chain NoReduce: frozen %d, full %d, minimal %d", res.FrozenEdges, res.FullEdges, res.MinimalEdges)
	}
}

// makeBatch builds a deterministic random batch for cfg.
func makeBatch(cfg core.Config, seed uint64) *core.Batch {
	r := rng.New(seed)
	b := &core.Batch{X: make([]*tensor.Matrix, cfg.SeqLen)}
	for t := range b.X {
		b.X[t] = tensor.New(cfg.Batch, cfg.InputSize)
		r.FillUniform(b.X[t].Data, -1, 1)
	}
	b.Targets = make([]int, cfg.Batch)
	for i := range b.Targets {
		b.Targets[i] = r.Intn(cfg.Classes)
	}
	return b
}

// engineDump trains and infers one step on a small engine so both step
// templates are captured, then dumps them.
func engineDump(t *testing.T, cell core.CellKind) *prof.ProfileData {
	t.Helper()
	cfg := core.Config{
		Cell: cell, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 3, HiddenSize: 4, Layers: 2, SeqLen: 5,
		Batch: 4, Classes: 3, MiniBatches: 2, Seed: 42,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(m, taskrt.NewInline(nil))
	if _, err := e.TrainStep(makeBatch(cfg, 7), 0.05); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Infer(makeBatch(cfg, 8)); err != nil {
		t.Fatal(err)
	}
	df := e.DumpTemplates()
	if len(df.Templates) != 2 {
		t.Fatalf("dumped %d templates, want 2 (train + infer)", len(df.Templates))
	}
	return df
}

// tinyInferDump infers one step of a T=4 single-layer BLSTM and dumps its
// one template: a real capture small enough to read whole.
func tinyInferDump(t *testing.T) *prof.ProfileData {
	t.Helper()
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToOne, Merge: core.MergeSum,
		InputSize: 2, HiddenSize: 2, Layers: 1, SeqLen: 4,
		Batch: 2, Classes: 2, MiniBatches: 1, Seed: 7,
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(m, taskrt.NewInline(nil))
	if _, _, err := e.Infer(makeBatch(cfg, 9)); err != nil {
		t.Fatal(err)
	}
	df := e.DumpTemplates()
	if len(df.Templates) != 1 {
		t.Fatalf("dumped %d templates, want 1", len(df.Templates))
	}
	return df
}

// TestRealTemplatesProvenOrdered is the happens-before acceptance criterion:
// on every cached step template of every cell kind, and on the T=4 BLSTM
// inference capture, every same-key task pair must be proven ordered, the
// frozen edge set must be the exact transitive reduction, and training
// graphs must actually shed edges.
func TestRealTemplatesProvenOrdered(t *testing.T) {
	cases := []struct {
		name string
		dump func(t *testing.T) *prof.ProfileData
	}{
		{"lstm-split", func(t *testing.T) *prof.ProfileData { return engineDump(t, core.LSTM) }},
		{"gru-split", func(t *testing.T) *prof.ProfileData { return engineDump(t, core.GRU) }},
		{"rnn-split", func(t *testing.T) *prof.ProfileData { return engineDump(t, core.RNN) }},
		{"lstm-t4-infer", tinyInferDump},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			df := c.dump(t)
			for i := range df.Templates {
				d := &df.Templates[i]
				res := graphlint.Check(d)
				noDiags(t, res)
				if res.KeyPairs == 0 {
					t.Errorf("%s: no same-key pairs proven", d.Name)
				}
				if res.FrozenEdges != res.MinimalEdges {
					t.Errorf("%s: frozen %d edges but minimal is %d", d.Name, res.FrozenEdges, res.MinimalEdges)
				}
				if strings.HasPrefix(d.Name, "train") && d.FullEdges <= res.FrozenEdges {
					t.Errorf("%s: reduction pruned nothing (full %d, frozen %d)", d.Name, d.FullEdges, res.FrozenEdges)
				}
				t.Logf("%s: %d nodes, %d→%d edges (%.1f%% pruned), %d key pairs ordered",
					d.Name, res.Nodes, d.FullEdges, res.FrozenEdges, res.PrunedPct(), res.KeyPairs)
			}
		})
	}
}

// TestStrippedMergeEdgeRace is the race-injection acceptance criterion:
// removing one merge-cell dependency edge from a real captured template must
// fail loudly, with the happens-before diagnostic naming both task labels
// and the key.
func TestStrippedMergeEdgeRace(t *testing.T) {
	df := engineDump(t, core.LSTM)
	var d *prof.TemplateData
	for i := range df.Templates {
		if strings.HasPrefix(df.Templates[i].Name, "infer") {
			d = &df.Templates[i]
		}
	}
	// Find a merge node and strip its forward-cell edge.
	merge, strippedPred := -1, -1
	for i := range d.Nodes {
		if d.Nodes[i].Kind == "merge" && len(d.Nodes[i].Preds) == 2 {
			merge = i
			strippedPred = int(d.Nodes[i].Preds[0])
			d.Nodes[i].Preds = d.Nodes[i].Preds[1:]
			break
		}
	}
	if merge < 0 {
		t.Fatal("no two-pred merge node found to strip")
	}
	mergeLabel := d.Nodes[merge].Label
	predLabel := d.Nodes[strippedPred].Label

	res := graphlint.Check(d)
	var hb []graphlint.Diagnostic
	for _, diag := range res.Diags {
		if diag.Pass == "happens-before" {
			hb = append(hb, diag)
		}
	}
	if len(hb) == 0 {
		t.Fatalf("stripped merge edge %q -> %q produced no happens-before diagnostic (all: %v)",
			predLabel, mergeLabel, res.Diags)
	}
	found := false
	for _, diag := range hb {
		if strings.Contains(diag.Msg, mergeLabel) && strings.Contains(diag.Msg, predLabel) {
			found = true
			// The key the pair conflicts on must be named (the forward
			// cell's state key the merge reads).
			if !strings.Contains(diag.Msg, "fwdSt") && !strings.Contains(diag.Msg, "revSt") {
				t.Errorf("race diagnostic does not name the state key: %s", diag.Msg)
			}
		}
	}
	if !found {
		t.Fatalf("no diagnostic names both %q and %q: %v", predLabel, mergeLabel, hb)
	}
	// The edge verification pass must independently notice the frozen edge
	// set no longer matches the declared dependencies.
	reduction := false
	for _, diag := range res.Diags {
		if diag.Pass == "reduction" {
			reduction = true
		}
	}
	if !reduction {
		t.Error("stripped edge not flagged by the reduction verification pass")
	}
}

// TestDumpRoundTrip writes an engine dump to disk, reads it back through the
// validating loader, and expects identical verification results and a
// renderable, acyclic graph.
func TestDumpRoundTrip(t *testing.T) {
	df := engineDump(t, core.GRU)
	path := filepath.Join(t.TempDir(), "templates.json")
	if err := df.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := prof.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Templates) != len(df.Templates) {
		t.Fatalf("round trip lost templates: %d vs %d", len(back.Templates), len(df.Templates))
	}
	for i := range back.Templates {
		orig, rt := &df.Templates[i], &back.Templates[i]
		if !reflect.DeepEqual(orig, rt) {
			t.Fatalf("template %d changed across round trip", i)
		}
		a, b := graphlint.Check(orig), graphlint.Check(rt)
		if len(a.Diags) != 0 || len(b.Diags) != 0 || a.KeyPairs != b.KeyPairs || a.FrozenEdges != b.FrozenEdges {
			t.Fatalf("verification differs across round trip: %+v vs %+v", a, b)
		}
		g := rt.Graph()
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteDOT(&buf, rt.Name); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "digraph") {
			t.Fatal("DOT output missing digraph header")
		}
	}
}

// multiHeadDump captures a masked shared-trunk training step: a three-head
// (classify + tag + generate) model fed a variable-length batch, the
// template carrying the new per-head gradient-accumulation joins and the
// lens masking tasks.
func multiHeadDump(t *testing.T, layers, seqLen, mbs int) *prof.ProfileData {
	t.Helper()
	cfg := core.Config{
		Cell: core.LSTM, Arch: core.ManyToMany, Merge: core.MergeSum,
		InputSize: 2, HiddenSize: 2, Layers: layers, SeqLen: seqLen,
		Batch: 4, Classes: 2, MiniBatches: mbs, Seed: 7,
		Heads: []core.HeadSpec{
			{Kind: core.HeadClassify, Classes: 2},
			{Kind: core.HeadTag, Classes: 3},
			{Kind: core.HeadGenerate, Classes: 3},
		},
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(m, taskrt.NewInline(nil))
	b := makeBatch(cfg, 9)
	b.StepTargets = make([][]int, cfg.SeqLen)
	b.Lens = make([]int, cfg.Batch)
	for i := range b.Lens {
		b.Lens[i] = 1 + i%cfg.SeqLen
	}
	for ts := range b.StepTargets {
		b.StepTargets[ts] = make([]int, cfg.Batch)
		for i := range b.StepTargets[ts] {
			if ts >= b.Lens[i] {
				b.StepTargets[ts][i] = tensor.IgnoreLabel
			}
		}
	}
	if _, err := e.TrainStep(b, 0.05); err != nil {
		t.Fatal(err)
	}
	return e.DumpTemplates()
}

// checkMultiHead requires a masked three-head training capture to be one
// template in which every same-key task pair — in particular the heads'
// accumulating writes into the trunk's merge gradients — is proven ordered,
// with the frozen edge set an exact transitive reduction.
func checkMultiHead(t *testing.T, df *prof.ProfileData) {
	t.Helper()
	if len(df.Templates) != 1 {
		t.Fatalf("dumped %d templates, want 1", len(df.Templates))
	}
	d := &df.Templates[0]
	res := graphlint.Check(d)
	noDiags(t, res)
	if res.KeyPairs == 0 {
		t.Errorf("%s: no same-key pairs proven", d.Name)
	}
	if res.FrozenEdges != res.MinimalEdges {
		t.Errorf("%s: frozen %d edges but minimal is %d", d.Name, res.FrozenEdges, res.MinimalEdges)
	}
	t.Logf("%s: %d nodes, %d→%d edges (%.1f%% pruned), %d key pairs ordered",
		d.Name, res.Nodes, d.FullEdges, res.FrozenEdges, res.PrunedPct(), res.KeyPairs)
}

// TestMultiHeadTemplateProvenOrdered is the shared-trunk acceptance
// criterion on the captured masked three-head training template with two
// layers and two mini-batches.
func TestMultiHeadTemplateProvenOrdered(t *testing.T) {
	checkMultiHead(t, multiHeadDump(t, 2, 5, 2))
}

// TestModelCheckMultiHeadMasked checks the minimal masked three-head
// training template (one layer, T=2, one mini-batch), small enough that
// every ordering it needs can be read off its dump by hand.
func TestModelCheckMultiHeadMasked(t *testing.T) {
	checkMultiHead(t, multiHeadDump(t, 1, 2, 1))
}
