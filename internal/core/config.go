// Package core implements B-Par, the paper's primary contribution: a
// barrier-free parallel execution model for bidirectional LSTM and GRU
// networks. A BRNN is unrolled into a DAG in which every node is one of
//
//   - a forward-order cell update (Equations 1-6 or 7-10),
//   - a reverse-order cell update,
//   - a merge cell combining the two directions (Equation 11), or
//   - a classifier-head cell,
//
// and every node is emitted as a taskrt.Task whose In/Out annotations encode
// exactly the arrows of the paper's Figure 2. The run-time system then
// schedules cells the moment their data dependencies are satisfied — forward
// cells, reverse cells, merge cells and cells of *different layers* all
// overlap, with no per-layer barrier anywhere.
//
// The engine captures that emission once per step shape into a frozen
// template and replays it on the native goroutine runtime or on an inline
// sequential executor (the bitwise reference).
package core

import (
	"fmt"
	"strings"
)

// CellKind selects the recurrent cell type.
type CellKind int

const (
	// LSTM uses Equations 1-6.
	LSTM CellKind = iota
	// GRU uses Equations 7-10.
	GRU
	// RNN is the basic (Elman) recurrent unit the paper's Section II
	// names as the third cell family BRNNs are built from.
	RNN
)

// cellNames spells each CellKind; CLI flags take the lower-case spelling.
var cellNames = [...]string{LSTM: "LSTM", GRU: "GRU", RNN: "RNN"}

func (k CellKind) String() string {
	if k < 0 || int(k) >= len(cellNames) {
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
	return cellNames[k]
}

// ParseCellKind accepts the spellings used by CLI flags: lstm, gru or rnn.
func ParseCellKind(s string) (CellKind, error) {
	for k, name := range cellNames {
		if s == strings.ToLower(name) {
			return CellKind(k), nil
		}
	}
	return LSTM, fmt.Errorf("unknown cell %q", s)
}

// Arch selects the BRNN output architecture.
type Arch int

const (
	// ManyToOne produces a single output from the whole sequence (the
	// TIDIGITS speech-recognition configuration).
	ManyToOne Arch = iota
	// ManyToMany produces one output per timestep (the Wikipedia
	// next-character-prediction configuration).
	ManyToMany
)

var archNames = [...]string{ManyToOne: "many-to-one", ManyToMany: "many-to-many"}

func (a Arch) String() string {
	if a < 0 || int(a) >= len(archNames) {
		return fmt.Sprintf("Arch(%d)", int(a))
	}
	return archNames[a]
}

// HeadKind selects what one output head computes on top of the shared
// bidirectional trunk.
type HeadKind int

const (
	// HeadClassify is many-to-one classification: one softmax over the
	// final merged state of the whole sequence (the TIDIGITS shape).
	HeadClassify HeadKind = iota
	// HeadTag is many-to-many per-frame tagging: one softmax per timestep
	// over that timestep's merged state, trained on Batch.StepTargets.
	HeadTag
	// HeadGenerate is next-token generation: per-frame softmaxes like
	// HeadTag, but trained on the step-target stream shifted one frame
	// left (frame t predicts StepTargets[t+1]; the final frame's label is
	// tensor.IgnoreLabel).
	HeadGenerate
)

// headNames spells each HeadKind as the -heads flag takes it.
var headNames = [...]string{HeadClassify: "classify", HeadTag: "tag", HeadGenerate: "generate"}

func (k HeadKind) String() string {
	if k < 0 || int(k) >= len(headNames) {
		return fmt.Sprintf("HeadKind(%d)", int(k))
	}
	return headNames[k]
}

// ParseHeadKind accepts the spellings String returns.
func ParseHeadKind(s string) (HeadKind, error) {
	for k, name := range headNames {
		if s == name {
			return HeadKind(k), nil
		}
	}
	return HeadClassify, fmt.Errorf("unknown head kind %q (want classify, tag, or generate)", s)
}

// PerFrame reports whether the head emits one output slot per timestep.
func (k HeadKind) PerFrame() bool { return k == HeadTag || k == HeadGenerate }

// HeadSpec configures one output head.
type HeadSpec struct {
	Kind    HeadKind
	Classes int
}

// MergeOp selects how Equation 11 combines forward and reverse outputs.
type MergeOp int

const (
	// MergeSum adds the two directions (the default; it reproduces the
	// paper's parameter counts exactly).
	MergeSum MergeOp = iota
	// MergeAvg averages the two directions.
	MergeAvg
	// MergeMul multiplies the two directions element-wise.
	MergeMul
	// MergeConcat concatenates the two directions, doubling the width fed
	// to the next layer.
	MergeConcat
)

var mergeNames = [...]string{MergeSum: "sum", MergeAvg: "avg", MergeMul: "mul", MergeConcat: "concat"}

func (m MergeOp) String() string {
	if m < 0 || int(m) >= len(mergeNames) {
		return fmt.Sprintf("MergeOp(%d)", int(m))
	}
	return mergeNames[m]
}

// Config describes one BRNN model and workload.
type Config struct {
	Cell  CellKind
	Arch  Arch
	Merge MergeOp

	// InputSize is the per-timestep feature width; HiddenSize the cell
	// width; Layers the stacked depth; SeqLen the unrolled timestep count;
	// Batch the number of sequences per training batch.
	InputSize, HiddenSize, Layers, SeqLen, Batch int

	// Classes is the classifier-head output width (digit labels for
	// TIDIGITS, vocabulary size for next-character prediction). It is only
	// consulted when Heads is empty.
	Classes int

	// Heads configures the output heads sharing the bidirectional trunk.
	// Empty derives the single legacy head from Arch: ManyToOne ⇒ one
	// HeadClassify, ManyToMany ⇒ one HeadTag, each with Classes outputs —
	// numerics, serialization and task-graph shape stay exactly as before
	// the multi-head refactor.
	Heads []HeadSpec

	// MiniBatches is the data-parallel split: the batch is divided into
	// this many mini-batches whose task graphs run concurrently (the
	// paper's mbs:N). 1 disables data parallelism.
	MiniBatches int

	// Seed drives deterministic weight initialization.
	Seed uint64
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	switch {
	case c.InputSize <= 0:
		return fmt.Errorf("core: InputSize must be positive, got %d", c.InputSize)
	case c.HiddenSize <= 0:
		return fmt.Errorf("core: HiddenSize must be positive, got %d", c.HiddenSize)
	case c.Layers <= 0:
		return fmt.Errorf("core: Layers must be positive, got %d", c.Layers)
	case c.SeqLen <= 0:
		return fmt.Errorf("core: SeqLen must be positive, got %d", c.SeqLen)
	case c.Batch <= 0:
		return fmt.Errorf("core: Batch must be positive, got %d", c.Batch)
	case len(c.Heads) == 0 && c.Classes <= 0:
		return fmt.Errorf("core: Classes must be positive, got %d", c.Classes)
	case c.MiniBatches <= 0:
		return fmt.Errorf("core: MiniBatches must be positive, got %d", c.MiniBatches)
	case c.MiniBatches > c.Batch:
		return fmt.Errorf("core: MiniBatches (%d) cannot exceed Batch (%d)", c.MiniBatches, c.Batch)
	case c.Cell != LSTM && c.Cell != GRU && c.Cell != RNN:
		return fmt.Errorf("core: unknown cell kind %d", int(c.Cell))
	case c.Arch != ManyToOne && c.Arch != ManyToMany:
		return fmt.Errorf("core: unknown arch %d", int(c.Arch))
	case c.Merge < MergeSum || c.Merge > MergeConcat:
		return fmt.Errorf("core: unknown merge op %d", int(c.Merge))
	}
	for i, h := range c.Heads {
		if h.Kind < HeadClassify || h.Kind > HeadGenerate {
			return fmt.Errorf("core: head %d: unknown head kind %d", i, int(h.Kind))
		}
		if h.Classes <= 0 {
			return fmt.Errorf("core: head %d: Classes must be positive, got %d", i, h.Classes)
		}
	}
	return nil
}

// HeadSpecs returns the effective head configuration: Heads when set,
// otherwise the single legacy head derived from Arch and Classes.
func (c Config) HeadSpecs() []HeadSpec {
	if len(c.Heads) > 0 {
		return c.Heads
	}
	if c.Arch == ManyToMany {
		return []HeadSpec{{Kind: HeadTag, Classes: c.Classes}}
	}
	return []HeadSpec{{Kind: HeadClassify, Classes: c.Classes}}
}

// anyPerFrame reports whether any effective head consumes per-timestep
// merged states (and therefore whether the top layer emits merge cells at
// every timestep).
func (c Config) anyPerFrame() bool {
	for _, h := range c.HeadSpecs() {
		if h.Kind.PerFrame() {
			return true
		}
	}
	return false
}

// anyClassify reports whether any effective head consumes the sequence-final
// merged state (and therefore whether the final-merge cell is emitted).
func (c Config) anyClassify() bool {
	for _, h := range c.HeadSpecs() {
		if h.Kind == HeadClassify {
			return true
		}
	}
	return false
}

// HeadSlots returns the total number of output slots at sequence length T: a
// classification head owns one slot, a per-frame head owns T.
func (c Config) HeadSlots(T int) int {
	n := 0
	for _, h := range c.HeadSpecs() {
		if h.Kind.PerFrame() {
			n += T
		} else {
			n++
		}
	}
	return n
}

// HeadSlotRange returns head h's first output slot and slot count at
// sequence length T. Slots are laid out head-major in declaration order;
// per-frame heads own T consecutive slots indexed by timestep.
func (c Config) HeadSlotRange(h, T int) (lo, n int) {
	specs := c.HeadSpecs()
	for i := 0; i < h; i++ {
		if specs[i].Kind.PerFrame() {
			lo += T
		} else {
			lo++
		}
	}
	if specs[h].Kind.PerFrame() {
		return lo, T
	}
	return lo, 1
}

// MergeDim returns the width of a merge cell's output.
func (c Config) MergeDim() int {
	if c.Merge == MergeConcat {
		return 2 * c.HiddenSize
	}
	return c.HiddenSize
}

// LayerInputSize returns the input width of cells in layer l.
func (c Config) LayerInputSize(l int) int {
	if l == 0 {
		return c.InputSize
	}
	return c.MergeDim()
}

// gatesPerCell returns the fused gate count of the configured cell.
func (c Config) gatesPerCell() int {
	switch c.Cell {
	case GRU:
		return 3
	case RNN:
		return 1
	default:
		return 4
	}
}

// ParamCount returns the number of trainable recurrent parameters (both
// directions, all layers, excluding the classifier head). With the default
// sum merge it reproduces the paper's "Parameters" column: e.g. 6.3M for a
// 6-layer 256/256 BLSTM and 94.4M for 256/1024.
func (c Config) ParamCount() int {
	g := c.gatesPerCell()
	total := 0
	for l := 0; l < c.Layers; l++ {
		in := c.LayerInputSize(l)
		perDir := g*c.HiddenSize*(in+c.HiddenSize) + g*c.HiddenSize
		total += 2 * perDir
	}
	return total
}

// HeadParamCount returns the total parameter count of all output heads.
func (c Config) HeadParamCount() int {
	total := 0
	for _, h := range c.HeadSpecs() {
		total += h.Classes*c.MergeDim() + h.Classes
	}
	return total
}

func (c Config) String() string {
	s := fmt.Sprintf("%s/%s in=%d hid=%d layers=%d seq=%d batch=%d mbs=%d merge=%s",
		c.Cell, c.Arch, c.InputSize, c.HiddenSize, c.Layers, c.SeqLen, c.Batch, c.MiniBatches, c.Merge)
	if len(c.Heads) > 0 {
		s += " heads="
		for i, h := range c.Heads {
			if i > 0 {
				s += "+"
			}
			s += fmt.Sprintf("%s:%d", h.Kind, h.Classes)
		}
	}
	return s
}
