package prof

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"bpar/internal/taskrt"
)

// DumpVersion identifies the dump schema; bpar-prof and bpar-vet -graph
// refuse dumps from a different major layout.
const DumpVersion = 1

// NodeData is one template node in a dump: its identity, its declared
// dependency keys, its frozen predecessor edges and, in a profile, its
// per-replay accumulation and last-replay timeline.
type NodeData struct {
	Label      string  `json:"label"`
	Kind       string  `json:"kind,omitempty"`
	Flops      float64 `json:"flops,omitempty"`
	WorkingSet int64   `json:"working_set,omitempty"`
	// In/Out/InOut are the task's declared dependency keys, as indices into
	// TemplateData.Keys. Together with the node order they let a reader
	// re-derive the full RAW/WAR/WAW edge set independently of Preds.
	In    []int `json:"in,omitempty"`
	Out   []int `json:"out,omitempty"`
	InOut []int `json:"inout,omitempty"`
	// Preds are the frozen predecessor indices: the (possibly transitively
	// reduced) edges a replay decrements counters over.
	Preds []int32 `json:"preds,omitempty"`
	// SumNS is the node's total duration across all profiled replays.
	SumNS int64 `json:"sum_ns,omitempty"`
	// LastStartNS/LastEndNS/LastWorker are the node's execution window and
	// worker in the final profiled replay (nanoseconds on the runtime clock).
	LastStartNS int64 `json:"last_start_ns,omitempty"`
	LastEndNS   int64 `json:"last_end_ns,omitempty"`
	LastWorker  int32 `json:"last_worker,omitempty"`
}

// TemplateData is one frozen template in a dump: the DAG, and the
// measurements when it is a profile.
type TemplateData struct {
	Name    string     `json:"name"`
	Replays int64      `json:"replays,omitempty"`
	Nodes   []NodeData `json:"nodes"`
	// Keys names each dependency key the nodes reference. Key identity in
	// the live runtime is pointer identity; a static dump assigns dense IDs
	// in first-use order and records the name the dumper gave each key
	// (e.g. "fwdSt L2 t17 mb0"). A profile records no keys.
	Keys []string `json:"keys,omitempty"`
	// FullEdges is the derived edge count before transitive reduction; the
	// length of all Preds is the frozen (reduced) count.
	FullEdges int `json:"full_edges,omitempty"`
	// ReplayStartNS is when the last replay was submitted; with the nodes'
	// LastEndNS it frames the last replay's measured window.
	ReplayStartNS int64 `json:"replay_start_ns,omitempty"`
	// LastSpanNS/LastWorkNS/LastElapsedNS mirror the scrape gauges: longest
	// dependency path, summed durations, and submit-to-drain time of the
	// last replay.
	LastSpanNS    int64 `json:"last_span_ns,omitempty"`
	LastWorkNS    int64 `json:"last_work_ns,omitempty"`
	LastElapsedNS int64 `json:"last_elapsed_ns,omitempty"`
	// ElapsedSumNS accumulates submit-to-drain time across all replays;
	// ElapsedSumNS/Replays is the measured mean step time the simulator
	// calibration compares against.
	ElapsedSumNS int64 `json:"elapsed_sum_ns,omitempty"`
}

// ProfileData is a complete dump, decoupled from live *taskrt.Template
// pointers so that graph verification, analysis and reporting work purely
// from the JSON file. A static dump (DumpTemplates) carries keys and no
// timings; a profile (GraphProfiler.Snapshot) carries timings and no keys.
type ProfileData struct {
	Version int `json:"version"`
	// Workers is the runtime's worker count (0 if the dumper did not know).
	Workers int `json:"workers,omitempty"`
	// SchedOverheadRatio is the runtime's own bookkeeping-to-useful-work
	// ratio (taskrt.Stats().OverheadRatio()) at dump time — the paper keeps
	// this below 0.10.
	SchedOverheadRatio float64        `json:"sched_overhead_ratio,omitempty"`
	Templates          []TemplateData `json:"templates"`
}

// templateData returns tpl's name, node identities and frozen edges.
func templateData(tpl *taskrt.Template) TemplateData {
	td := TemplateData{Name: tpl.Name, Nodes: make([]NodeData, tpl.Len())}
	for i := range td.Nodes {
		t := tpl.Task(i)
		td.Nodes[i] = NodeData{
			Label:      t.Label,
			Kind:       t.Kind,
			Flops:      t.Flops,
			WorkingSet: t.WorkingSet,
			Preds:      append([]int32(nil), tpl.NodePreds(i)...),
		}
	}
	return td
}

// DumpTemplates returns the static dump of tpls: each template's nodes, its
// declared keys and its frozen and derived edges, with no timings. keyName
// names each distinct dependency key; a nil keyName, or an empty name, gives
// "key#<id>". Keys are interned per template in first-use order, so equal
// keys always map to one ID.
func DumpTemplates(tpls []*taskrt.Template, keyName func(taskrt.Dep) string) *ProfileData {
	pd := &ProfileData{Version: DumpVersion}
	for _, tpl := range tpls {
		td := templateData(tpl)
		td.FullEdges = tpl.FullEdges()
		ids := make(map[taskrt.Dep]int)
		intern := func(ks []taskrt.Dep) []int {
			if len(ks) == 0 {
				return nil
			}
			out := make([]int, len(ks))
			for i, k := range ks {
				id, ok := ids[k]
				if !ok {
					id = len(td.Keys)
					ids[k] = id
					name := ""
					if keyName != nil {
						name = keyName(k)
					}
					if name == "" {
						name = fmt.Sprintf("key#%d", id)
					}
					td.Keys = append(td.Keys, name)
				}
				out[i] = id
			}
			return out
		}
		for i := range td.Nodes {
			t, nd := tpl.Task(i), &td.Nodes[i]
			nd.In, nd.Out, nd.InOut = intern(t.In), intern(t.Out), intern(t.InOut)
		}
		pd.Templates = append(pd.Templates, td)
	}
	slices.SortFunc(pd.Templates, byNameThenSize)
	return pd
}

// byNameThenSize is the deterministic dump order of templates.
func byNameThenSize(a, b TemplateData) int {
	return cmp.Or(strings.Compare(a.Name, b.Name), cmp.Compare(len(a.Nodes), len(b.Nodes)))
}

// Snapshot extracts the accumulated profile. It must be called while no
// replay of the profiled templates is in flight (i.e. after the runtime's
// Wait returned), because it reads the plain per-node arrays the workers
// write; the per-worker drain edges of Wait make those reads safe.
func (p *GraphProfiler) Snapshot(workers int) *ProfileData {
	pd := &ProfileData{Version: DumpVersion, Workers: workers}
	for tpl, tp := range p.load() {
		td := templateData(tpl)
		if td.Name == "" {
			td.Name = fmt.Sprintf("template-%dn", tp.n)
		}
		td.Replays = tp.replays.Load()
		td.ReplayStartNS = tp.replayStartAtNS
		td.LastSpanNS = tp.lastSpanNS.Load()
		td.LastWorkNS = tp.lastWorkNS.Load()
		td.LastElapsedNS = tp.lastElapsedNS.Load()
		td.ElapsedSumNS = tp.elapsedSumNS.Load()
		for i := range td.Nodes {
			nd := &td.Nodes[i]
			nd.SumNS = tp.sumNS[i]
			nd.LastStartNS = tp.lastStartNS[i]
			nd.LastEndNS = tp.lastEndNS[i]
			nd.LastWorker = tp.lastWorker[i]
		}
		pd.Templates = append(pd.Templates, td)
	}
	slices.SortFunc(pd.Templates, byNameThenSize)
	return pd
}

// Write encodes the dump as indented JSON.
func (pd *ProfileData) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(pd); err != nil {
		return fmt.Errorf("prof: encode dump: %w", err)
	}
	return nil
}

// WriteFile writes the dump to path.
func (pd *ProfileData) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pd.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read decodes and validates a dump: version match, predecessor indices in
// [0, node), and key references in range.
func Read(r io.Reader) (*ProfileData, error) {
	var pd ProfileData
	if err := json.NewDecoder(r).Decode(&pd); err != nil {
		return nil, fmt.Errorf("prof: decode dump: %w", err)
	}
	if pd.Version != DumpVersion {
		return nil, fmt.Errorf("prof: dump version %d, this build reads %d", pd.Version, DumpVersion)
	}
	for ti := range pd.Templates {
		td := &pd.Templates[ti]
		for i := range td.Nodes {
			nd := &td.Nodes[i]
			for _, pr := range nd.Preds {
				if pr < 0 || int(pr) >= i {
					return nil, fmt.Errorf("prof: template %q node %d has predecessor %d outside [0,%d)",
						td.Name, i, pr, i)
				}
			}
			for _, ks := range [][]int{nd.In, nd.Out, nd.InOut} {
				for _, k := range ks {
					if k < 0 || k >= len(td.Keys) {
						return nil, fmt.Errorf("prof: template %q node %d references key %d outside [0,%d)",
							td.Name, i, k, len(td.Keys))
					}
				}
			}
		}
	}
	return &pd, nil
}

// ReadFile reads and validates a dump from path.
func ReadFile(path string) (*ProfileData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// MeanDurations returns each node's mean duration in seconds across the
// profiled replays — the measured per-node costs the simulator's calibration
// mode substitutes for its cost model.
func (td *TemplateData) MeanDurations() []float64 {
	out := make([]float64, len(td.Nodes))
	if td.Replays == 0 {
		return out
	}
	for i := range td.Nodes {
		out[i] = float64(td.Nodes[i].SumNS) / float64(td.Replays) / 1e9
	}
	return out
}

// Graph rebuilds the frozen DAG as a taskrt.Graph for the discrete-event
// simulator and for DOT rendering. With keys, an edge is marked
// data-carrying when the predecessor writes a key the node reads. A profile
// records no keys, and the capture's dedup merges RAW with WAR/WAW edges, so
// there every edge is marked data-carrying: the common case, which steers
// only the simulator's locality preference, not its dependency order.
func (td *TemplateData) Graph() *taskrt.Graph {
	nodes := make([]*taskrt.GraphNode, len(td.Nodes))
	preds := make([][]int32, len(td.Nodes))
	data := make([][]bool, len(td.Nodes))
	for i := range td.Nodes {
		nd := &td.Nodes[i]
		nodes[i] = &taskrt.GraphNode{ID: i, Label: nd.Label, Kind: nd.Kind, Flops: nd.Flops, WorkingSet: nd.WorkingSet}
		preds[i] = nd.Preds
		data[i] = make([]bool, len(nd.Preds))
		for j, p := range nd.Preds {
			data[i][j] = len(td.Keys) == 0 || writesRead(&td.Nodes[p], nd)
		}
	}
	return taskrt.LinkGraph(nodes, preds, data)
}

// writesRead reports whether node w writes (Out or InOut) a key that node r
// reads (In or InOut).
func writesRead(w, r *NodeData) bool {
	for _, ws := range [2][]int{w.Out, w.InOut} {
		for _, k := range ws {
			if slices.Contains(r.In, k) || slices.Contains(r.InOut, k) {
				return true
			}
		}
	}
	return false
}
