package baseline

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"bpar/internal/core"
	"bpar/internal/taskrt"
)

// graphPin hashes a recorded graph node by node in submission order: label,
// kind, cost metadata, predecessors with their data flags, and successors.
func graphPin(g *taskrt.Graph) uint64 {
	var buf bytes.Buffer
	for _, n := range g.Nodes {
		fmt.Fprintf(&buf, "%s|%s|%g|%d|%v|%v|%v\n", n.Label, n.Kind, n.Flops, n.WorkingSet, n.Preds, n.DataPreds, n.Succs)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// graphKind names one of the three builders.
type graphKind struct {
	name  string
	build func(core.Config) (*taskrt.Graph, error)
}

var graphKinds = []graphKind{{"train", TrainGraph}, {"infer", InferGraph}, {"barrier", BarrierTrainGraph}}

// matrixCase is one configuration of the paper-graph matrix.
type matrixCase struct {
	name string
	cfg  core.Config
}

// paperMatrix spans every cell, merge op and head layout (a classifier, a
// tagger, all three head kinds, a generator beside a classifier), one and
// three mini-batches over an uneven batch of 7, and one and three layers:
// 192 configurations, each recorded by all three builders.
func paperMatrix() []matrixCase {
	headSets := []struct {
		name  string
		arch  core.Arch
		heads []core.HeadSpec
	}{
		{"m2o", core.ManyToOne, nil},
		{"m2m", core.ManyToMany, nil},
		{"ctg", core.ManyToMany, []core.HeadSpec{{Kind: core.HeadClassify, Classes: 3}, {Kind: core.HeadTag, Classes: 4}, {Kind: core.HeadGenerate, Classes: 5}}},
		{"gc", core.ManyToMany, []core.HeadSpec{{Kind: core.HeadGenerate, Classes: 5}, {Kind: core.HeadClassify, Classes: 3}}},
	}
	var cases []matrixCase
	for _, cell := range []core.CellKind{core.LSTM, core.GRU, core.RNN} {
		for _, merge := range []core.MergeOp{core.MergeSum, core.MergeAvg, core.MergeMul, core.MergeConcat} {
			for _, hs := range headSets {
				for _, mbs := range []int{1, 3} {
					for _, layers := range []int{1, 3} {
						cases = append(cases, matrixCase{
							name: fmt.Sprintf("%v-%v-%s-mbs%d-L%d", cell, merge, hs.name, mbs, layers),
							cfg: core.Config{
								Cell: cell, Arch: hs.arch, Merge: merge, Heads: hs.heads,
								InputSize: 3, HiddenSize: 4, Layers: layers, SeqLen: 5,
								Batch: 7, Classes: 3, MiniBatches: mbs, Seed: 1,
							},
						})
					}
				}
			}
		}
	}
	return cases
}

// TestPaperGraphMatrixPin pins every graph of the matrix with one FNV-64a
// over the per-graph pins. The constant was captured from the engine's
// graph-only mode while it still emitted this shape, after the builder had
// matched it graph for graph.
func TestPaperGraphMatrixPin(t *testing.T) {
	h := fnv.New64a()
	n := 0
	for _, c := range paperMatrix() {
		for _, k := range graphKinds {
			g, err := k.build(c.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, k.name, err)
			}
			fmt.Fprintf(h, "%s %s %x\n", c.name, k.name, graphPin(g))
			n++
		}
	}
	if n != 576 {
		t.Fatalf("matrix has %d graphs, want 576", n)
	}
	if got, want := h.Sum64(), uint64(0xf03ec4ba46c79de2); got != want {
		t.Fatalf("paper graphs drifted: 0x%x want 0x%x", got, want)
	}
}

// TestFusedCellCost: at equal dims a fused RNN cell costs less than a GRU
// cell and a GRU cell less than an LSTM cell, every backward task costs more
// than its forward one, and all are positive.
func TestFusedCellCost(t *testing.T) {
	for _, d := range []struct{ batch, in, hidden int }{{128, 256, 256}, {128, 64, 512}, {1, 1, 1}} {
		prev := 0.0
		for _, c := range []core.CellKind{core.RNN, core.GRU, core.LSTM} {
			cfg := core.Config{Cell: c, InputSize: d.in, HiddenSize: d.hidden}
			fwd, bwd := cellFlops(cfg, 0, d.batch, false), cellFlops(cfg, 0, d.batch, true)
			if fwd <= prev || bwd <= fwd {
				t.Errorf("%v %+v: forward %g (previous cell %g), backward %g", c, d, fwd, prev, bwd)
			}
			prev = fwd
		}
	}
}
