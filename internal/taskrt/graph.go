package taskrt

import "fmt"

// GraphNode is one task in a recorded dependency graph.
type GraphNode struct {
	ID         int
	Label      string
	Kind       string
	Flops      float64
	WorkingSet int64
	Preds      []int
	Succs      []int
	// DataPreds lists, for each predecessor, whether the edge carries data
	// the node reads (true) or is a WAR/WAW ordering edge (false). Parallel
	// to Preds. The simulator's cache model uses it for locality decisions.
	DataPreds []bool
}

// Graph is an immutable task dependency DAG captured from a builder's task
// stream (Capture.Graph) or a dump (prof.TemplateData.Graph). The simulator
// replays it on a virtual machine.
type Graph struct {
	Nodes []*GraphNode
}

// taskNodes returns one edge-less graph node per task, IDs in slice order.
func taskNodes(tasks []*Task) []*GraphNode {
	nodes := make([]*GraphNode, len(tasks))
	for i, t := range tasks {
		nodes[i] = &GraphNode{ID: i, Label: t.Label, Kind: t.Kind, Flops: t.Flops, WorkingSet: t.WorkingSet}
	}
	return nodes
}

// LinkGraph adds per-node predecessor lists and their data flags to nodes:
// Preds and DataPreds keep the given order, and each node's Succs lists its
// successors in ID order. DataPreds shares data's storage, capped so an
// append by the caller reallocates.
func LinkGraph[I int | int32](nodes []*GraphNode, preds [][]I, data [][]bool) *Graph {
	for i, n := range nodes {
		n.DataPreds = data[i][:len(data[i]):len(data[i])]
		for _, p := range preds[i] {
			n.Preds = append(n.Preds, int(p))
			nodes[p].Succs = append(nodes[p].Succs, i)
		}
	}
	return &Graph{Nodes: nodes}
}

// Validate checks the graph is a DAG whose node IDs are already in
// topological order (predecessors have smaller IDs), which holds by
// construction for captured graphs; it exists to catch deriver bugs.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		if len(n.DataPreds) != len(n.Preds) {
			return fmt.Errorf("taskrt: node %d has %d preds but %d data flags", n.ID, len(n.Preds), len(n.DataPreds))
		}
		for _, p := range n.Preds {
			if p >= n.ID {
				return fmt.Errorf("taskrt: node %d has predecessor %d >= itself", n.ID, p)
			}
			if p < 0 {
				return fmt.Errorf("taskrt: node %d has negative predecessor", n.ID)
			}
		}
	}
	return nil
}

// CriticalPathFlops returns the largest total Flops along any dependency
// chain — the lower bound on parallel execution work, used by simulator
// sanity checks and parallel-efficiency analyses.
func (g *Graph) CriticalPathFlops() float64 {
	best := make([]float64, len(g.Nodes))
	maxPath := 0.0
	for _, n := range g.Nodes { // IDs are topologically ordered
		b := 0.0
		for _, p := range n.Preds {
			if best[p] > b {
				b = best[p]
			}
		}
		best[n.ID] = b + n.Flops
		if best[n.ID] > maxPath {
			maxPath = best[n.ID]
		}
	}
	return maxPath
}

// TotalFlops sums Flops over all nodes.
func (g *Graph) TotalFlops() float64 {
	s := 0.0
	for _, n := range g.Nodes {
		s += n.Flops
	}
	return s
}

// MaxWidth returns an upper bound on achievable concurrency: the largest
// antichain found by greedy level scheduling (nodes grouped by earliest
// level; the widest level is returned).
func (g *Graph) MaxWidth() int {
	level := make([]int, len(g.Nodes))
	counts := map[int]int{}
	widest := 0
	for _, n := range g.Nodes {
		l := 0
		for _, p := range n.Preds {
			if level[p]+1 > l {
				l = level[p] + 1
			}
		}
		level[n.ID] = l
		counts[l]++
		if counts[l] > widest {
			widest = counts[l]
		}
	}
	return widest
}

// CountKind returns how many nodes have the given Kind.
func (g *Graph) CountKind(kind string) int {
	c := 0
	for _, n := range g.Nodes {
		if n.Kind == kind {
			c++
		}
	}
	return c
}
