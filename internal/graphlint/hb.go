package graphlint

import (
	"fmt"

	"bpar/internal/prof"
)

// checkHappensBefore proves every conflicting same-key task pair is ordered
// by the frozen edge set's transitive closure. Two tasks conflict on a key
// when both touch it and at least one writes it (Out or InOut); reads of
// the same key commute and need no order. Node indices are capture order,
// which is topological, so for a conflicting pair (a < b) the only possible
// order is a before b — the pass demands a ∈ ancestors(b) and reports the
// pair as a statically proven race otherwise: some legal schedule runs the
// two bodies concurrently (or reordered) on the same tensor.
//
// reach must be the closure of the frozen predecessor lists. The returned
// count is how many conflicting pairs were proven ordered.
func checkHappensBefore(d *prof.TemplateData, reach []bitset) ([]Diagnostic, int) {
	type touch struct {
		node   int
		writes bool
	}
	byKey := make([][]touch, len(d.Keys))
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		for _, k := range nd.In {
			byKey[k] = append(byKey[k], touch{node: i})
		}
		for _, k := range nd.Out {
			byKey[k] = append(byKey[k], touch{node: i, writes: true})
		}
		for _, k := range nd.InOut {
			byKey[k] = append(byKey[k], touch{node: i, writes: true})
		}
	}

	var diags []Diagnostic
	pairs := 0
	for k, touches := range byKey {
		// Touches are in node order: nodes were scanned ascending and a task
		// listing one key in both In and Out still yields ascending entries.
		for bi := 1; bi < len(touches); bi++ {
			b := touches[bi]
			for ai := 0; ai < bi; ai++ {
				a := touches[ai]
				if a.node == b.node || (!a.writes && !b.writes) {
					continue
				}
				pairs++
				if !reach[b.node].has(a.node) {
					diags = append(diags, Diagnostic{
						Template: d.Name, Pass: "happens-before",
						Msg: fmt.Sprintf("tasks %q and %q both touch key %q (%s vs %s) but no dependency path orders them — a legal schedule races them",
							d.Nodes[a.node].Label, d.Nodes[b.node].Label, d.Keys[k],
							accessKind(a.writes), accessKind(b.writes)),
					})
				}
			}
		}
	}
	return diags, pairs
}

func accessKind(writes bool) string {
	if writes {
		return "write"
	}
	return "read"
}
