package sim

import (
	"math"
	"sort"
)

// Hist is a weighted histogram over explicit bucket edges: bucket i covers
// [Edges[i], Edges[i+1]); a final implicit bucket covers [Edges[last], +inf).
// The simulator fills one for per-task IPC and one for L3 MPKI (Figure 7).
type Hist struct {
	Edges   []float64
	Weights []float64
	Total   float64
}

// NewHist builds a histogram with the given ascending bucket edges.
func NewHist(edges ...float64) *Hist {
	if len(edges) == 0 {
		panic("sim: NewHist needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("sim: NewHist edges must be strictly ascending")
		}
	}
	return &Hist{Edges: edges, Weights: make([]float64, len(edges))}
}

// Add records value v with weight w (e.g. a task's IPC weighted by its
// duration). Values below the first edge are clamped into the first bucket.
func (h *Hist) Add(v, w float64) {
	if w <= 0 || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.Edges, v)
	if i > 0 && (i == len(h.Edges) || h.Edges[i] != v) {
		i--
	} else if i == len(h.Edges) {
		i--
	}
	h.Weights[i] += w
	h.Total += w
}

// Shares returns every bucket's weight fraction.
func (h *Hist) Shares() []float64 {
	out := make([]float64, len(h.Weights))
	if h.Total == 0 {
		return out
	}
	for i, w := range h.Weights {
		out[i] = w / h.Total
	}
	return out
}
