package taskrt

import (
	"fmt"
	"strings"
	"testing"
)

// The TestRecorder* cases pin the graph Capture records for the simulator:
// the full derived edge set with RAW data flags, and no task body run.

func TestRecorderBuildsEdges(t *testing.T) {
	r := NewCapture()
	a, b := key("a"), key("b")
	r.Submit(&Task{Label: "w1", Out: []Dep{a}, Flops: 10})
	r.Submit(&Task{Label: "r1", In: []Dep{a}, Out: []Dep{b}, Flops: 20})
	r.Submit(&Task{Label: "r2", In: []Dep{a, b}, Flops: 30})
	g := r.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("got %d nodes", len(g.Nodes))
	}
	// r1 depends on w1; r2 depends on w1 (via a) and r1 (via b).
	if len(g.Nodes[1].Preds) != 1 || g.Nodes[1].Preds[0] != 0 {
		t.Fatalf("r1 preds %v", g.Nodes[1].Preds)
	}
	if len(g.Nodes[2].Preds) != 2 {
		t.Fatalf("r2 preds %v", g.Nodes[2].Preds)
	}
	if got := g.CriticalPathFlops(); got != 60 {
		t.Fatalf("critical path %g, want 60", got)
	}
	if got := g.TotalFlops(); got != 60 {
		t.Fatalf("total %g", got)
	}
}

func TestRecorderWARWAWEdges(t *testing.T) {
	r := NewCapture()
	a := key("a")
	r.Submit(&Task{Label: "w1", Out: []Dep{a}})
	r.Submit(&Task{Label: "r1", In: []Dep{a}})
	r.Submit(&Task{Label: "w2", Out: []Dep{a}}) // WAW on w1 + WAR on r1
	g := r.Graph()
	n := g.Nodes[2]
	if len(n.Preds) != 2 {
		t.Fatalf("w2 preds %v", n.Preds)
	}
	// Both edges are ordering edges (no data read).
	for i := range n.Preds {
		if n.DataPreds[i] {
			t.Fatalf("w2 edge %d should not carry data", i)
		}
	}
}

func TestRecorderDataFlagOnRAW(t *testing.T) {
	r := NewCapture()
	a := key("a")
	r.Submit(&Task{Label: "w", Out: []Dep{a}})
	r.Submit(&Task{Label: "r", In: []Dep{a}})
	g := r.Graph()
	if !g.Nodes[1].DataPreds[0] {
		t.Fatal("RAW edge must carry data")
	}
}

func TestRecorderDoesNotExecuteByDefault(t *testing.T) {
	r := NewCapture()
	ran := 0
	r.Submit(&Task{Fn: func() { ran++ }})
	r.Barrier()
	if ran != 0 {
		t.Fatalf("capture must record, not execute: ran=%d", ran)
	}
}

// TestCaptureBarrier checks the barrier node: ordering-only edges from every
// node since the previous barrier, and an ordering edge to every later node,
// listed before its derived predecessors.
func TestCaptureBarrier(t *testing.T) {
	c := NewCapture()
	a := key("a")
	c.Submit(&Task{Label: "w", Out: []Dep{a}})
	c.Submit(&Task{Label: "x"})
	c.Barrier()
	c.Submit(&Task{Label: "r", In: []Dep{a}})
	c.Barrier()
	c.Barrier() // nothing since the previous barrier: no predecessors
	g := c.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s%v%v%v ", n.Label, n.Preds, n.DataPreds, n.Succs)
	}
	want := "w[][][2 3] x[][][2] barrier[0 1][false false][3] r[2 0][false true][4] barrier[3][false][] barrier[][][] "
	if got := b.String(); got != want {
		t.Fatalf("barrier graph\n got %s\nwant %s", got, want)
	}
}

// TestCaptureGraphIsUnreduced checks Graph keeps every derived edge after
// Freeze, while the template holds the reduced set.
func TestCaptureGraphIsUnreduced(t *testing.T) {
	c := NewCapture()
	k := key("x")
	c.Submit(&Task{Label: "w", Out: []Dep{k}})
	c.Submit(&Task{Label: "r", In: []Dep{k}})
	c.Submit(&Task{Label: "w2", Out: []Dep{k}})
	tpl := c.Freeze()
	full := c.Graph().Nodes[2]
	if fmt.Sprint(full.Preds, full.DataPreds) != "[0 1] [false false]" {
		t.Fatalf("capture graph w2: preds %v data %v, want WAW on w and WAR on r", full.Preds, full.DataPreds)
	}
	if got := fmt.Sprint(tpl.NodePreds(2)); got != "[1]" {
		t.Fatalf("template w2: preds %s, want only the WAR edge", got)
	}
	if tpl.FullEdges() != 3 || tpl.Edges() != 2 {
		t.Fatalf("template edges %d of %d derived, want 2 of 3", tpl.Edges(), tpl.FullEdges())
	}
}

func TestGraphMaxWidth(t *testing.T) {
	r := NewCapture()
	root := key("root")
	r.Submit(&Task{Label: "root", Out: []Dep{root}})
	for i := 0; i < 5; i++ {
		r.Submit(&Task{Label: fmt.Sprintf("leaf%d", i), In: []Dep{root}})
	}
	g := r.Graph()
	if w := g.MaxWidth(); w != 5 {
		t.Fatalf("MaxWidth %d, want 5", w)
	}
}

func TestGraphCountKind(t *testing.T) {
	r := NewCapture()
	r.Submit(&Task{Kind: "lstm"})
	r.Submit(&Task{Kind: "lstm"})
	r.Submit(&Task{Kind: "merge"})
	g := r.Graph()
	if g.CountKind("lstm") != 2 || g.CountKind("merge") != 1 || g.CountKind("gru") != 0 {
		t.Fatal("CountKind wrong")
	}
}

func TestInlineExecutor(t *testing.T) {
	e := NewInline(nil)
	sum := 0
	e.Submit(&Task{Fn: func() { sum += 1 }})
	e.Submit(&Task{Fn: func() { sum += 2 }})
	e.Submit(&Task{Fn: nil})
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	// Fn == nil tasks count as executed empty bodies, matching Runtime.
	if sum != 3 || e.nextID != 3 {
		t.Fatalf("sum=%d executed=%d", sum, e.nextID)
	}
}

func TestInlineCapturesPanic(t *testing.T) {
	e := NewInline(nil)
	e.Submit(&Task{Label: "boom", Fn: func() { panic("x") }})
	if err := e.Wait(); err == nil {
		t.Fatal("expected error")
	}
	// Later tasks still run.
	ran := false
	e.Submit(&Task{Fn: func() { ran = true }})
	if !ran {
		t.Fatal("inline executor stopped after panic")
	}
}

func TestInlineSinkGetsRecords(t *testing.T) {
	sink := &collectSink{}
	e := NewInline(sink)
	e.Submit(&Task{Label: "a", Kind: "k", Fn: func() {}})
	if len(sink.recs) != 1 || sink.recs[0].Label != "a" {
		t.Fatalf("records %+v", sink.recs)
	}
}

func TestWriteDOT(t *testing.T) {
	r := NewCapture()
	a := key("a")
	r.Submit(&Task{Label: "w", Kind: "lstm", Out: []Dep{a}})
	r.Submit(&Task{Label: "r", Kind: "merge", In: []Dep{a}})
	r.Submit(&Task{Label: "w2", Kind: "head", Out: []Dep{a}}) // WAR: dashed edge
	var buf strings.Builder
	if err := r.Graph().WriteDOT(&buf, "test graph"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph bpar", `label="test graph"`,
		`n0 [label="w", fillcolor="lightblue"]`,
		`n1 [label="r", fillcolor="khaki"]`,
		"n0 -> n1 [style=solid]",
		"n1 -> n2 [style=dashed]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
