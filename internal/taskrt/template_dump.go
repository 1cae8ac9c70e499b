package taskrt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// TemplateDumpVersion identifies the template dump schema; bpar-vet -graph
// refuses dumps from a different major layout.
const TemplateDumpVersion = 1

// TemplateNodeDump is one task of a dumped template: its identity, its
// declared dependency keys (as indices into the dump's key table), and the
// frozen predecessor edges replay actually executes.
type TemplateNodeDump struct {
	Label      string  `json:"label"`
	Kind       string  `json:"kind,omitempty"`
	Flops      float64 `json:"flops,omitempty"`
	WorkingSet int64   `json:"working_set,omitempty"`
	// In/Out/InOut are the task's declared dependency keys, as indices into
	// TemplateDump.Keys. Together with the submission order they let a
	// reader re-derive the full RAW/WAR/WAW edge set independently of Preds.
	In    []int `json:"in,omitempty"`
	Out   []int `json:"out,omitempty"`
	InOut []int `json:"inout,omitempty"`
	// Preds are the frozen predecessor indices — the (possibly transitively
	// reduced) edges a replay decrements counters over.
	Preds []int32 `json:"preds,omitempty"`
}

// TemplateDump is one frozen template, decoupled from live *Template
// pointers and pointer-identity dependency keys so static analysis works
// purely from the JSON file.
type TemplateDump struct {
	Name  string             `json:"name"`
	Nodes []TemplateNodeDump `json:"nodes"`
	// Keys names each dependency key referenced by the nodes. Key identity
	// in the live runtime is pointer identity; the dump assigns dense IDs in
	// first-use order and records the human name the dumper's namer gave
	// each key (e.g. "fwdSt L2 t17 mb0").
	Keys []string `json:"keys"`
	// FullEdges is the derived edge count before transitive reduction;
	// len of all Preds is the frozen (reduced) count.
	FullEdges int `json:"full_edges"`
}

// TemplateDumpFile is a complete template dump: every template an engine had
// cached at dump time, in deterministic order.
type TemplateDumpFile struct {
	Version   int            `json:"version"`
	Templates []TemplateDump `json:"templates"`
}

// Dump converts the frozen template into its serializable form. keyName
// names each distinct dependency key; it may be nil, in which case keys are
// named "key#<id>". Keys are interned in first-use order across the whole
// template, so equal pointers always map to one dump ID.
func (tpl *Template) Dump(keyName func(Dep) string) TemplateDump {
	d := TemplateDump{Name: tpl.Name, Nodes: make([]TemplateNodeDump, len(tpl.tasks)), FullEdges: tpl.fullEdges}
	ids := make(map[Dep]int)
	intern := func(k Dep) int {
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(d.Keys)
		ids[k] = id
		name := ""
		if keyName != nil {
			name = keyName(k)
		}
		if name == "" {
			name = fmt.Sprintf("key#%d", id)
		}
		d.Keys = append(d.Keys, name)
		return id
	}
	internAll := func(ks []Dep) []int {
		if len(ks) == 0 {
			return nil
		}
		out := make([]int, len(ks))
		for i, k := range ks {
			out[i] = intern(k)
		}
		return out
	}
	for i, t := range tpl.tasks {
		d.Nodes[i] = TemplateNodeDump{
			Label:      t.Label,
			Kind:       t.Kind,
			Flops:      t.Flops,
			WorkingSet: t.WorkingSet,
			In:         internAll(t.In),
			Out:        internAll(t.Out),
			InOut:      internAll(t.InOut),
			Preds:      append([]int32(nil), tpl.preds[i]...),
		}
	}
	return d
}

// Edges reports the frozen edge count of the dumped template.
func (d *TemplateDump) Edges() int {
	e := 0
	for i := range d.Nodes {
		e += len(d.Nodes[i].Preds)
	}
	return e
}

// Graph rebuilds the dumped template as a Graph for DOT rendering and cycle
// checking. A dump carries no derived flags, so an edge is marked
// data-carrying when the predecessor writes a key the node reads.
func (d *TemplateDump) Graph() *Graph {
	nodes := make([]*GraphNode, len(d.Nodes))
	preds := make([][]int32, len(d.Nodes))
	data := make([][]bool, len(d.Nodes))
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		nodes[i] = &GraphNode{ID: i, Label: nd.Label, Kind: nd.Kind, Flops: nd.Flops, WorkingSet: nd.WorkingSet}
		preds[i] = nd.Preds
		data[i] = make([]bool, len(nd.Preds))
		for j, p := range nd.Preds {
			data[i][j] = writesRead(&d.Nodes[p], nd)
		}
	}
	return linkGraph(nodes, preds, data)
}

// writesRead reports whether dumped node w writes (Out or InOut) a key that
// node r reads (In or InOut).
func writesRead(w, r *TemplateNodeDump) bool {
	for _, ws := range [2][]int{w.Out, w.InOut} {
		for _, k := range ws {
			if slices.Contains(r.In, k) || slices.Contains(r.InOut, k) {
				return true
			}
		}
	}
	return false
}

// SortTemplateDumps orders templates by name, then size — the deterministic
// dump order shared with the profiler's dumps.
func SortTemplateDumps(ts []TemplateDump) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && templateDumpLess(&ts[j], &ts[j-1]); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func templateDumpLess(a, b *TemplateDump) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return len(a.Nodes) < len(b.Nodes)
}

// Write encodes the dump file as indented JSON.
func (df *TemplateDumpFile) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(df); err != nil {
		return fmt.Errorf("taskrt: encode template dump: %w", err)
	}
	return nil
}

// WriteFile writes the dump file to path.
func (df *TemplateDumpFile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := df.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTemplateDumps decodes and validates a template dump file: version
// match, predecessor indices in [0, node), and key references in range.
func ReadTemplateDumps(r io.Reader) (*TemplateDumpFile, error) {
	var df TemplateDumpFile
	if err := json.NewDecoder(r).Decode(&df); err != nil {
		return nil, fmt.Errorf("taskrt: decode template dump: %w", err)
	}
	if df.Version != TemplateDumpVersion {
		return nil, fmt.Errorf("taskrt: template dump version %d, this build reads %d", df.Version, TemplateDumpVersion)
	}
	for ti := range df.Templates {
		td := &df.Templates[ti]
		for i := range td.Nodes {
			nd := &td.Nodes[i]
			for _, pr := range nd.Preds {
				if pr < 0 || int(pr) >= i {
					return nil, fmt.Errorf("taskrt: template %q node %d has predecessor %d outside [0,%d)",
						td.Name, i, pr, i)
				}
			}
			for _, ks := range [][]int{nd.In, nd.Out, nd.InOut} {
				for _, k := range ks {
					if k < 0 || k >= len(td.Keys) {
						return nil, fmt.Errorf("taskrt: template %q node %d references key %d outside [0,%d)",
							td.Name, i, k, len(td.Keys))
					}
				}
			}
		}
	}
	return &df, nil
}

// ReadTemplateDumpFile reads and validates a template dump from path.
func ReadTemplateDumpFile(path string) (*TemplateDumpFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTemplateDumps(f)
}
