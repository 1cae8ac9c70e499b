package prof

import (
	"fmt"
	"testing"

	"bpar/internal/taskrt"
)

// tdFromTemplate synthesizes a single-replay TemplateData from a frozen
// template with the given per-node durations.
func tdFromTemplate(tpl *taskrt.Template, durNS []int64) *TemplateData {
	td := &TemplateData{Name: tpl.Name, Replays: 1, Nodes: make([]NodeData, tpl.Len())}
	for i := 0; i < tpl.Len(); i++ {
		t := tpl.Task(i)
		td.Nodes[i] = NodeData{
			Label: t.Label, Kind: t.Kind,
			Preds: append([]int32(nil), tpl.NodePreds(i)...),
			SumNS: durNS[i],
		}
	}
	return td
}

// lcgKey deterministically assigns pseudo-random dependency keys so the
// generated capture mixes RAW, WAR, and WAW edges with plenty of transitive
// redundancy.
type lcgT struct{ s uint64 }

func (l *lcgT) next(n int) int {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return int((l.s >> 33) % uint64(n))
}

// captureRandom builds one pseudo-random submission sequence twice — frozen
// with and without reduction — so the pair shares tasks, durations, and the
// derived dependency closure.
func captureRandom(n, keys int, noReduce bool) *taskrt.Template {
	c := taskrt.NewCapture()
	c.NoReduce = noReduce
	ks := make([]taskrt.Dep, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%d", i)
	}
	lcg := &lcgT{s: 42}
	for i := 0; i < n; i++ {
		in := []taskrt.Dep{ks[lcg.next(keys)], ks[lcg.next(keys)]}
		out := []taskrt.Dep{ks[lcg.next(keys)]}
		c.Submit(&taskrt.Task{Label: fmt.Sprintf("t%d", i), In: in, Out: out})
	}
	return c.Freeze()
}

// TestAnalyzeInvariantUnderReduction is the acceptance criterion that the
// measured critical path is identical before and after transitive reduction:
// for any per-node durations, every earliest start/finish, the span, and
// every slack computed by Analyze must agree between the full and the
// reduced edge set. The removed edge p→i always has a retained witness path
// p→…→q→i, and with non-negative durations EFT[q] ≥ EFT[p], so no maximum
// over predecessors ever changes.
func TestAnalyzeInvariantUnderReduction(t *testing.T) {
	full := captureRandom(120, 17, true)
	reduced := captureRandom(120, 17, false)
	if reduced.Edges() == full.Edges() {
		t.Fatal("generated capture has no redundant edges — the comparison is vacuous")
	}
	t.Logf("random capture: %d nodes, %d edges full, %d reduced",
		full.Len(), full.Edges(), reduced.Edges())

	dur := make([]int64, full.Len())
	lcg := &lcgT{s: 7}
	for i := range dur {
		dur[i] = int64(100 + lcg.next(10_000))
	}
	af := Analyze(tdFromTemplate(full, dur), 4)
	ar := Analyze(tdFromTemplate(reduced, dur), 4)

	if af.SpanNS != ar.SpanNS {
		t.Fatalf("span changed under reduction: %g vs %g", af.SpanNS, ar.SpanNS)
	}
	if af.WorkNS != ar.WorkNS {
		t.Fatalf("work changed under reduction: %g vs %g", af.WorkNS, ar.WorkNS)
	}
	for i := range af.EST {
		if af.EST[i] != ar.EST[i] || af.EFT[i] != ar.EFT[i] {
			t.Fatalf("node %d window changed: EST %g→%g, EFT %g→%g",
				i, af.EST[i], ar.EST[i], af.EFT[i], ar.EFT[i])
		}
		if af.Slack[i] != ar.Slack[i] {
			t.Fatalf("node %d slack changed: %g vs %g", i, af.Slack[i], ar.Slack[i])
		}
	}
}

// TestAnalyzeCritPathStableUnderReduction checks the critical-path node list
// itself on a graph with distinct durations (no EFT ties, so the argmax
// chain is unique and must survive reduction).
func TestAnalyzeCritPathStableUnderReduction(t *testing.T) {
	build := func(noReduce bool) *taskrt.Template {
		c := taskrt.NewCapture()
		c.NoReduce = noReduce
		a, b := taskrt.Dep("a"), taskrt.Dep("b")
		c.Submit(&taskrt.Task{Label: "src", Out: []taskrt.Dep{a}})
		c.Submit(&taskrt.Task{Label: "left", In: []taskrt.Dep{a}, Out: []taskrt.Dep{b}})
		c.Submit(&taskrt.Task{Label: "right", In: []taskrt.Dep{a}})
		c.Submit(&taskrt.Task{Label: "join", In: []taskrt.Dep{b}, InOut: []taskrt.Dep{a}})
		return c.Freeze()
	}
	full, reduced := build(true), build(false)
	if reduced.Edges() >= full.Edges() {
		t.Fatalf("diamond not reduced: %d vs %d edges", reduced.Edges(), full.Edges())
	}
	dur := []int64{100, 1300, 700, 400}
	af := Analyze(tdFromTemplate(full, dur), 2)
	ar := Analyze(tdFromTemplate(reduced, dur), 2)
	if len(af.CritPath) != len(ar.CritPath) {
		t.Fatalf("critical path length changed: %v vs %v", af.CritPath, ar.CritPath)
	}
	for i := range af.CritPath {
		if af.CritPath[i] != ar.CritPath[i] {
			t.Fatalf("critical path changed under reduction: %v vs %v", af.CritPath, ar.CritPath)
		}
	}
	// src -> left -> join is the unique longest chain.
	want := []int{0, 1, 3}
	for i, n := range want {
		if ar.CritPath[i] != n {
			t.Fatalf("critical path %v, want %v", ar.CritPath, want)
		}
	}
}
