package taskrt

import (
	"fmt"
	"strings"
	"testing"
)

// mkGraph builds a graph from labels and directed edges, filling Preds and
// Succs consistently.
func mkGraph(labels []string, edges [][2]int) *Graph {
	g := &Graph{}
	for i, l := range labels {
		g.Nodes = append(g.Nodes, &GraphNode{ID: i, Label: l})
	}
	for _, e := range edges {
		from, to := e[0], e[1]
		g.Nodes[from].Succs = append(g.Nodes[from].Succs, to)
		g.Nodes[to].Preds = append(g.Nodes[to].Preds, from)
		g.Nodes[to].DataPreds = append(g.Nodes[to].DataPreds, true)
	}
	return g
}

func TestCheckAcyclicPassesOnDAG(t *testing.T) {
	g := mkGraph([]string{"a", "b", "c", "d"},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("DAG rejected: %v", err)
	}
}

func TestCheckAcyclicPassesOnRecordedGraph(t *testing.T) {
	rec := NewCapture()
	k1, k2 := Dep(new(int)), Dep(new(int))
	rec.Submit(&Task{Label: "p", Out: []Dep{k1}})
	rec.Submit(&Task{Label: "q", In: []Dep{k1}, Out: []Dep{k2}})
	rec.Submit(&Task{Label: "r", In: []Dep{k2}, InOut: []Dep{k1}})
	g := rec.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("recorded graph rejected: %v", err)
	}
}

func TestCheckAcyclicSelfLoop(t *testing.T) {
	g := mkGraph([]string{"ouroboros"}, [][2]int{{0, 0}})
	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("self-loop not detected")
	}
	if want := `"ouroboros" -> "ouroboros"`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q missing chain %q", err, want)
	}
}

func TestCheckAcyclicTwoCycleViaWAR(t *testing.T) {
	// The WAR shape: "reader" consumes x then "writer" overwrites x (an
	// ordering edge reader -> writer); a mistaken extra edge writer -> reader
	// (e.g. a hand-added barrier) closes a 2-cycle.
	g := mkGraph([]string{"reader", "writer"}, [][2]int{{0, 1}, {1, 0}})
	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("2-cycle not detected")
	}
	msg := err.Error()
	if !strings.Contains(msg, "dependency cycle") {
		t.Errorf("error %q missing %q", msg, "dependency cycle")
	}
	ok := strings.Contains(msg, `"reader" -> "writer" -> "reader"`) ||
		strings.Contains(msg, `"writer" -> "reader" -> "writer"`)
	if !ok {
		t.Errorf("error %q does not name the full 2-cycle chain", msg)
	}
}

func TestCheckAcyclicLongLabeledChain(t *testing.T) {
	const n = 60
	labels := make([]string, n)
	var edges [][2]int
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("step-%02d", i)
		edges = append(edges, [2]int{i, (i + 1) % n}) // closes the loop at the end
	}
	g := mkGraph(labels, edges)
	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("long cycle not detected")
	}
	msg := err.Error()
	// The chain must name every member of the cycle, ending where it began.
	for i := 0; i < n; i++ {
		if !strings.Contains(msg, fmt.Sprintf("step-%02d", i)) {
			t.Fatalf("chain %q missing step-%02d", msg, i)
		}
	}
	if strings.Count(msg, "step-00") != 2 {
		t.Errorf("chain %q should open and close with step-00", msg)
	}
}

// frozenPipelineGraph captures a labeled two-stage pipeline and converts the
// frozen template to a Graph.
func frozenPipelineGraph() *Graph {
	c := NewCapture()
	x, y := key("x"), key("y")
	c.Submit(&Task{Label: "load input", Out: []Dep{x}})
	c.Submit(&Task{Label: "fwd cell", In: []Dep{x}, Out: []Dep{y}})
	c.Submit(&Task{Label: "merge states", In: []Dep{y}, InOut: []Dep{x}})
	return c.Freeze().Graph()
}

func TestCheckAcyclicPassesOnFrozenTemplate(t *testing.T) {
	g := frozenPipelineGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := g.CheckAcyclic(); err != nil {
		t.Fatalf("frozen template rejected: %v", err)
	}
}

// TestCheckAcyclicFrozenTemplateCycleNamesLabels corrupts a frozen
// template's graph into a cycle and demands the report speak in task labels,
// never bare node indices — the labels are what a human can map back to the
// emitter.
func TestCheckAcyclicFrozenTemplateCycleNamesLabels(t *testing.T) {
	g := frozenPipelineGraph()
	// Close the loop: the final merge feeds back into the loader.
	g.Nodes[2].Succs = append(g.Nodes[2].Succs, 0)
	g.Nodes[0].Preds = append(g.Nodes[0].Preds, 2)
	g.Nodes[0].DataPreds = append(g.Nodes[0].DataPreds, false)

	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("cycle through a frozen template's graph not detected")
	}
	msg := err.Error()
	for _, l := range []string{`"load input"`, `"fwd cell"`, `"merge states"`} {
		if !strings.Contains(msg, l) {
			t.Errorf("cycle chain %q missing task label %s", msg, l)
		}
	}
	if strings.Contains(msg, "#0") || strings.Contains(msg, "#1") || strings.Contains(msg, "#2") {
		t.Errorf("cycle chain %q falls back to node indices despite labels", msg)
	}
}

func TestCheckAcyclicUnlabeledFallsBackToID(t *testing.T) {
	g := mkGraph([]string{"", ""}, [][2]int{{0, 1}, {1, 0}})
	err := g.CheckAcyclic()
	if err == nil {
		t.Fatal("cycle not detected")
	}
	if !strings.Contains(err.Error(), "#0") {
		t.Errorf("error %q missing ID fallback", err)
	}
}
