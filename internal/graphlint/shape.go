package graphlint

import (
	"fmt"

	"bpar/internal/prof"
)

// checkShape lints structural defects of the dumped template:
//
//   - duplicate predecessor entries: the same edge twice in one list makes
//     replay decrement the node's counter twice per completion of that
//     predecessor, releasing it early on the next replay;
//   - nodes unreachable from the root set: in a well-formed frozen template
//     every node is reachable (indices are topological), so unreachability
//     means a hand-assembled or corrupted dump — typically a cycle, which
//     would deadlock a replay;
//   - reads of a key before its first writer: a node whose In lists a key
//     that no earlier node writes, while a later node does write it. Keys
//     with no writer at all are external inputs (the engine's kX batch
//     views, zero-initialized chain boundaries) and legitimate; a key the
//     graph itself defines being read before its definition means the task
//     consumes stale or uninitialized memory on every replay.
func checkShape(d *prof.TemplateData) []Diagnostic {
	var diags []Diagnostic
	n := len(d.Nodes)

	// Duplicate predecessor entries.
	for i := range d.Nodes {
		seen := map[int32]bool{}
		for _, p := range d.Nodes[i].Preds {
			if seen[p] {
				diags = append(diags, Diagnostic{
					Template: d.Name, Pass: "shape",
					Msg: fmt.Sprintf("task %q lists predecessor %q twice — its in-degree counter would be decremented twice per completion",
						d.Nodes[i].Label, d.Nodes[int(p)].Label),
				})
			}
			seen[p] = true
		}
	}

	// Reachability from roots over successor edges.
	succs := make([][]int, n)
	reached := make([]bool, n)
	var queue []int
	for i := range d.Nodes {
		if len(d.Nodes[i].Preds) == 0 {
			reached[i] = true
			queue = append(queue, i)
		}
		for _, p := range d.Nodes[i].Preds {
			succs[int(p)] = append(succs[int(p)], i)
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, s := range succs[i] {
			if !reached[s] {
				// A node is released only when ALL preds completed, but for
				// the lint one reached pred is enough: load validation
				// guarantees preds < node, so induction over indices makes
				// any-pred-reached equivalent to all-preds-reached.
				reached[s] = true
				queue = append(queue, s)
			}
		}
	}
	for i := range d.Nodes {
		if !reached[i] {
			diags = append(diags, Diagnostic{
				Template: d.Name, Pass: "shape",
				Msg: fmt.Sprintf("task %q is unreachable from the root set — a replay would never release it", d.Nodes[i].Label),
			})
		}
	}

	// Reads before the key's first writer.
	firstWriter := make([]int, len(d.Keys))
	for k := range firstWriter {
		firstWriter[k] = -1
	}
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		for _, ks := range [][]int{nd.Out, nd.InOut} {
			for _, k := range ks {
				if firstWriter[k] < 0 {
					firstWriter[k] = i
				}
			}
		}
	}
	for i := range d.Nodes {
		for _, k := range d.Nodes[i].In {
			if w := firstWriter[k]; w > i {
				diags = append(diags, Diagnostic{
					Template: d.Name, Pass: "shape",
					Msg: fmt.Sprintf("task %q reads key %q before its first writer %q — the read sees uninitialized or stale data",
						d.Nodes[i].Label, d.Keys[k], d.Nodes[w].Label),
				})
			}
		}
	}
	return diags
}
