// Package graphlint statically verifies and minimizes frozen task-graph
// templates. Where internal/analysis proves properties of the *source* that
// emits tasks (declared In/Out sets match actual tensor writes), graphlint
// proves properties of the *graph* those declarations produced: every pair
// of tasks touching the same key is ordered by the frozen edge set's
// transitive closure (no schedule can race them), the frozen edge set is the
// exact transitive reduction of the derived dependencies (minimal counters
// per replay, same closure), and the graph has no shape defects (duplicate
// edges, unreachable nodes, reads of keys first written later). The replay
// protocol that executes a verified graph is tested on taskrt.Runtime.Replay
// itself, not modelled here.
//
// The soundness of the happens-before pass rests on the undeclaredwrite
// source pass: a task body writing a tensor it did not declare would be a
// race the graph cannot see. bpar-vet's -graph mode therefore runs both —
// the AST-derived mutation summaries establish that declarations are
// exhaustive, and graphlint establishes that the declared pairs are ordered.
package graphlint

import (
	"fmt"

	"bpar/internal/prof"
)

// Diagnostic is one finding about a dumped template.
type Diagnostic struct {
	// Template is the dump's Name.
	Template string
	// Pass names the check that produced the finding.
	Pass string
	// Msg is the human-readable finding.
	Msg string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Template, d.Pass, d.Msg)
}

// Result summarizes one template's verification.
type Result struct {
	Template string
	Nodes    int
	// FullEdges/FrozenEdges/MinimalEdges are the derived, frozen, and
	// transitive-reduction edge counts. For a default Freeze,
	// FrozenEdges == MinimalEdges.
	FullEdges    int
	FrozenEdges  int
	MinimalEdges int
	// KeyPairs counts the same-key conflicting task pairs the happens-before
	// pass proved ordered.
	KeyPairs int
	Diags    []Diagnostic
}

// PrunedPct reports the percentage of derived edges the frozen template
// prunes.
func (r *Result) PrunedPct() float64 {
	if r.FullEdges == 0 {
		return 0
	}
	return 100 * float64(r.FullEdges-r.FrozenEdges) / float64(r.FullEdges)
}

// Check runs every static pass over one dumped template: shape lints,
// edge-set verification (frozen edges are a subset of the derived closure
// and close to the same relation — i.e. the reduction is equivalence-
// preserving — and minimal), and happens-before coverage.
func Check(d *prof.TemplateData) *Result {
	frozen := frozenPreds(d)
	res := &Result{
		Template:    d.Name,
		Nodes:       len(d.Nodes),
		FrozenEdges: countEdges(frozen),
	}
	res.Diags = append(res.Diags, checkShape(d)...)

	// Shape defects (out-of-order preds are rejected at load; duplicate
	// preds would double-count closure entries) do not block the remaining
	// passes: reachability below tolerates duplicates.
	full := deriveFullPreds(d)
	res.FullEdges = countEdges(full)
	minimal := reduce(full)
	res.MinimalEdges = countEdges(minimal)
	res.Diags = append(res.Diags, verifyFrozenEdges(d, full, minimal)...)

	reach := closure(frozen, len(d.Nodes))
	diags, pairs := checkHappensBefore(d, reach)
	res.KeyPairs = pairs
	res.Diags = append(res.Diags, diags...)
	return res
}

// frozenPreds extracts the frozen predecessor lists as []int slices.
func frozenPreds(d *prof.TemplateData) [][]int {
	preds := make([][]int, len(d.Nodes))
	for i := range d.Nodes {
		ps := make([]int, len(d.Nodes[i].Preds))
		for j, p := range d.Nodes[i].Preds {
			ps[j] = int(p)
		}
		preds[i] = ps
	}
	return preds
}

func countEdges(preds [][]int) int {
	n := 0
	for _, ps := range preds {
		n += len(ps)
	}
	return n
}

// bitset is a fixed-size bitset over node indices.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) or(o bitset) {
	for w, bits := range o {
		b[w] |= bits
	}
}
func (b bitset) equal(o bitset) bool {
	for w := range b {
		if b[w] != o[w] {
			return false
		}
	}
	return true
}

// closure computes per-node ancestor bitsets (the transitive closure of the
// predecessor relation) in one forward sweep over the topologically ordered
// nodes: anc(i) = ∪ over preds p of anc(p) ∪ {p}.
func closure(preds [][]int, n int) []bitset {
	anc := make([]bitset, n)
	words := (n + 63) / 64
	buf := make([]uint64, n*words)
	for i := 0; i < n; i++ {
		anc[i] = bitset(buf[i*words : (i+1)*words])
		for _, p := range preds[i] {
			anc[i].or(anc[p])
			anc[i].set(p)
		}
	}
	return anc
}

// deriveFullPreds re-derives the complete RAW/WAR/WAW edge set from the
// dump's declared keys and submission order, applying exactly the rules
// taskrt.Capture.Submit applies to an empty dependency table. This is an
// independent implementation: cross-checking it against the frozen Preds
// verifies Freeze's derivation and reduction rather than trusting them.
func deriveFullPreds(d *prof.TemplateData) [][]int {
	type entry struct {
		lastWriter int
		readers    []int
	}
	entries := make(map[int]*entry, len(d.Keys))
	ent := func(k int) *entry {
		e := entries[k]
		if e == nil {
			e = &entry{lastWriter: -1}
			entries[k] = e
		}
		return e
	}
	preds := make([][]int, len(d.Nodes))
	for id := range d.Nodes {
		nd := &d.Nodes[id]
		var ps []int
		seen := map[int]bool{}
		addPred := func(p int) {
			if p < 0 || p == id || seen[p] {
				return
			}
			seen[p] = true
			ps = append(ps, p)
		}
		for _, k := range nd.In {
			e := ent(k)
			addPred(e.lastWriter) // RAW
			e.readers = append(e.readers, id)
		}
		writeKeys := func(ks []int) {
			for _, k := range ks {
				e := ent(k)
				addPred(e.lastWriter) // RAW (InOut) + WAW
				for _, rd := range e.readers {
					addPred(rd) // WAR
				}
				e.lastWriter = id
				e.readers = e.readers[:0]
			}
		}
		writeKeys(nd.InOut)
		writeKeys(nd.Out)
		preds[id] = ps
	}
	return preds
}

// reduce computes the transitive reduction of a topologically ordered DAG:
// edge p→i is dropped iff p is an ancestor of another predecessor q of i.
// The reduction of a DAG is unique, so this is the minimal equivalent edge
// set regardless of how it is computed.
func reduce(preds [][]int) [][]int {
	n := len(preds)
	anc := closure(preds, n)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		keep := make([]int, 0, len(preds[i]))
		for _, p := range preds[i] {
			redundant := false
			for _, q := range preds[i] {
				if q != p && anc[q].has(p) {
					redundant = true
					break
				}
			}
			if !redundant {
				keep = append(keep, p)
			}
		}
		out[i] = keep
	}
	return out
}

// verifyFrozenEdges proves the frozen edge set is an equivalence-preserving
// reduction of the derived dependencies: its transitive closure must equal
// the full derivation's closure exactly (every happens-before constraint
// kept, none invented), and no transitively redundant edge may remain
// (the frozen set is minimal — unless the capture opted out of reduction,
// in which case it must equal the full derivation verbatim).
func verifyFrozenEdges(d *prof.TemplateData, full, minimal [][]int) []Diagnostic {
	var diags []Diagnostic
	n := len(d.Nodes)
	frozen := frozenPreds(d)
	fullAnc := closure(full, n)
	frozenAnc := closure(frozen, n)
	for i := 0; i < n; i++ {
		if !fullAnc[i].equal(frozenAnc[i]) {
			diags = append(diags, Diagnostic{
				Template: d.Name, Pass: "reduction",
				Msg: fmt.Sprintf("node %d %q: frozen closure differs from derived closure — the frozen edge set is not equivalence-preserving", i, d.Nodes[i].Label),
			})
		}
	}
	if len(diags) > 0 {
		// The closures differ; minimality against them is meaningless.
		return diags
	}
	// Minimality: the frozen set must be the (unique) reduction, or — when
	// the capture skipped reduction — the full derivation itself.
	reducedFrozen := reduce(frozen)
	if countEdges(reducedFrozen) != countEdges(frozen) && countEdges(frozen) != countEdges(full) {
		excess := countEdges(frozen) - countEdges(minimal)
		diags = append(diags, Diagnostic{
			Template: d.Name, Pass: "reduction",
			Msg: fmt.Sprintf("frozen edge set has %d transitively redundant edge(s) (frozen %d, minimal %d) yet is not the unreduced derivation (%d)",
				excess, countEdges(frozen), countEdges(minimal), countEdges(full)),
		})
	}
	return diags
}
